#include "core/consistency.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>
#include <tuple>

#include "common/check.hpp"

namespace omg::core {

using common::Check;

ConsistencyEngine::ConsistencyEngine(ConsistencyConfig config)
    : config_(std::move(config)) {}

std::vector<std::string> ConsistencyEngine::AssertionNames() const {
  std::vector<std::string> names;
  for (const auto& key : config_.attribute_keys) {
    names.push_back("consistent:" + key);
  }
  if (config_.temporal_threshold > 0.0) {
    names.push_back("flicker");
    names.push_back("appear");
  }
  return names;
}

namespace {

/// A maximal run of consecutive frames on which an entity is present, and
/// its slice [begin, end) of the entity's presence list.
struct Episode {
  std::size_t first_frame;  // index into the group timeline
  std::size_t last_frame;   // inclusive
  std::size_t begin;
  std::size_t end;
};

/// (frame on the group timeline, record index): one record's presence.
using Presence = std::pair<std::size_t, std::size_t>;

constexpr std::size_t kNoFrame = std::numeric_limits<std::size_t>::max();

}  // namespace

ConsistencyResult ConsistencyEngine::Analyze(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records,
    std::size_t num_examples) const {
  ConsistencyResult result;
  result.assertion_names = AssertionNames();
  result.severities =
      Run(frames, records, num_examples, &result.corrections);
  return result;
}

std::vector<std::vector<double>> ConsistencyEngine::Severities(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records,
    std::size_t num_examples) const {
  return Run(frames, records, num_examples, nullptr);
}

std::vector<std::vector<double>> ConsistencyEngine::Run(
    const std::vector<ConsistencyFrame>& frames,
    const std::vector<ConsistencyRecord>& records, std::size_t num_examples,
    std::vector<Correction>* corrections) const {
  // The configured attribute keys are authoritative: the generated
  // assertion set (and therefore the severity-matrix columns) must not
  // depend on which keys happen to appear in the data.
  const std::vector<std::string>& keys = config_.attribute_keys;
  const bool temporal = config_.temporal_threshold > 0.0;
  std::vector<std::vector<double>> severities(
      keys.size() + (temporal ? 2 : 0),
      std::vector<double>(num_examples, 0.0));

  for (const auto& record : records) {
    Check(record.example_index < num_examples,
          "record example_index out of range");
  }

  // Entities are runs of record indices sorted by (group, identifier); the
  // sort is stable, so each entity keeps its records in input order.
  const auto entity_less = [&records](std::size_t a, std::size_t b) {
    const int group = records[a].group.compare(records[b].group);
    if (group != 0) return group < 0;
    return records[a].identifier < records[b].identifier;
  };
  std::vector<std::size_t> order(records.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), entity_less);
  // entity_begin[i]..entity_begin[i + 1] is entity i's slice of `order`.
  std::vector<std::size_t> entity_begin;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || entity_less(order[i - 1], order[i])) {
      entity_begin.push_back(i);
    }
  }
  entity_begin.push_back(order.size());
  const std::size_t num_entities = entity_begin.size() - 1;

  // ---- Attribute consistency ("consistent:<key>"). ----
  // For each attribute key take the entity's most common value (mode; ties
  // broken by first occurrence) and flag + correct the minority records.
  std::vector<std::pair<std::size_t, const std::string*>> values;
  std::map<std::string_view, std::size_t> counts;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::string& key = keys[k];
    for (std::size_t entity = 0; entity < num_entities; ++entity) {
      // Collect this entity's values for `key`, preserving order.
      values.clear();
      for (std::size_t i = entity_begin[entity]; i < entity_begin[entity + 1];
           ++i) {
        const std::size_t r = order[i];
        for (const auto& [attr_key, attr_value] : records[r].attributes) {
          if (attr_key == key) values.emplace_back(r, &attr_value);
        }
      }
      if (values.size() < 2) continue;
      // Mode with first-occurrence tie-break.
      counts.clear();
      for (const auto& [_, value] : values) ++counts[*value];
      const std::string* mode = values.front().second;
      std::size_t mode_count = 0;
      for (const auto& [r, value] : values) {
        const std::size_t count = counts[*value];
        if (count > mode_count) {
          mode_count = count;
          mode = value;
        }
      }
      if (mode_count == values.size()) continue;  // all consistent
      for (const auto& [r, value] : values) {
        if (*value == *mode) continue;
        severities[k][records[r].example_index] += 1.0;
        if (corrections == nullptr) continue;
        Correction correction;
        correction.kind = CorrectionKind::kSetAttribute;
        correction.group = records[r].group;
        correction.identifier = records[r].identifier;
        correction.example_index = records[r].example_index;
        correction.timestamp = records[r].timestamp;
        correction.output_index = records[r].output_index;
        correction.attribute_key = key;
        correction.proposed_value = *mode;
        corrections->push_back(std::move(correction));
      }
    }
  }

  if (!temporal) return severities;

  // ---- Temporal consistency (flicker / appear). ----
  const std::size_t flicker_col = keys.size();
  const std::size_t appear_col = keys.size() + 1;
  const double threshold = config_.temporal_threshold;

  // Per-group ordered timelines: frame indices sorted by (group, timestamp,
  // example index), so each group's timeline is one slice.
  for (const auto& frame : frames) {
    Check(frame.example_index < num_examples,
          "frame example_index out of range");
  }
  std::vector<std::size_t> timeline(frames.size());
  for (std::size_t f = 0; f < timeline.size(); ++f) timeline[f] = f;
  std::sort(timeline.begin(), timeline.end(),
            [&frames](std::size_t a, std::size_t b) {
              return std::tie(frames[a].group, frames[a].timestamp,
                              frames[a].example_index) <
                     std::tie(frames[b].group, frames[b].timestamp,
                              frames[b].example_index);
            });

  // One example -> frame table, filled for one group at a time.
  std::vector<std::size_t> example_to_frame(num_examples, kNoFrame);
  std::vector<Presence> presence;
  std::vector<Episode> episodes;
  std::vector<std::size_t> support;
  std::size_t group_begin = 0;  // the current group's slice of `timeline`
  std::size_t group_end = 0;
  for (std::size_t entity = 0; entity < num_entities; ++entity) {
    const std::size_t* const first = order.data() + entity_begin[entity];
    const std::size_t* const last = order.data() + entity_begin[entity + 1];
    const std::string& group = records[*first].group;
    const std::string& identifier = records[*first].identifier;

    // Entities arrive in group order: find each group's timeline once.
    if (group_end == 0 || frames[timeline[group_begin]].group != group) {
      for (std::size_t f = group_begin; f < group_end; ++f) {
        example_to_frame[frames[timeline[f]].example_index] = kNoFrame;
      }
      group_begin = group_end;
      while (group_begin < timeline.size() &&
             frames[timeline[group_begin]].group < group) {
        ++group_begin;
      }
      group_end = group_begin;
      while (group_end < timeline.size() &&
             frames[timeline[group_end]].group == group) {
        ++group_end;
      }
      Check(group_end > group_begin,
            "records reference group with no frames: " + group);
      for (std::size_t f = group_begin; f < group_end; ++f) {
        example_to_frame[frames[timeline[f]].example_index] = f - group_begin;
      }
    }
    const std::size_t* const ordered = timeline.data() + group_begin;
    const std::size_t n = group_end - group_begin;
    const auto example_of = [&](std::size_t f) {
      return frames[ordered[f]].example_index;
    };
    const auto timestamp_of = [&](std::size_t f) {
      return frames[ordered[f]].timestamp;
    };

    // Presence: (frame, record) sorted by frame, records on one frame in
    // input order.
    presence.clear();
    for (const std::size_t* r = first; r != last; ++r) {
      const std::size_t f = example_to_frame[records[*r].example_index];
      Check(f != kNoFrame, "record example missing from frame timeline");
      presence.emplace_back(f, *r);
    }
    const auto by_frame = [](const Presence& a, const Presence& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(presence.begin(), presence.end(), by_frame)) {
      std::stable_sort(presence.begin(), presence.end(), by_frame);
    }

    // Episodes: maximal presence runs.
    episodes.clear();
    for (std::size_t i = 0; i < presence.size(); ++i) {
      const std::size_t f = presence[i].first;
      if (!episodes.empty() && episodes.back().last_frame + 1 >= f) {
        episodes.back().last_frame = f;
        episodes.back().end = i + 1;
      } else {
        episodes.push_back(Episode{f, f, i, i + 1});
      }
    }

    // `flicker`: a gap between two episodes shorter than T means the
    // identifier disappeared and reappeared within a T-second window.
    for (std::size_t e = 0; e + 1 < episodes.size(); ++e) {
      const Episode& before = episodes[e];
      const Episode& after = episodes[e + 1];
      const std::size_t gap_begin = before.last_frame + 1;
      const std::size_t gap_end = after.first_frame;  // exclusive
      const double gap_duration =
          timestamp_of(gap_end) - timestamp_of(before.last_frame);
      if (gap_duration >= threshold) continue;
      for (std::size_t f = gap_begin; f < gap_end; ++f) {
        severities[flicker_col][example_of(f)] += 1.0;
      }
      if (corrections == nullptr) continue;
      // One add-correction per gap frame, supported by the occurrences on
      // the frames either side of the gap.
      support.clear();
      std::size_t tail = before.end;
      while (tail > before.begin &&
             presence[tail - 1].first == before.last_frame) {
        --tail;
      }
      for (std::size_t i = tail; i < before.end; ++i) {
        support.push_back(presence[i].second);
      }
      for (std::size_t i = after.begin;
           i < after.end && presence[i].first == gap_end; ++i) {
        support.push_back(presence[i].second);
      }
      for (std::size_t f = gap_begin; f < gap_end; ++f) {
        Correction correction;
        correction.kind = CorrectionKind::kAddOutput;
        correction.group = group;
        correction.identifier = identifier;
        correction.example_index = example_of(f);
        correction.timestamp = timestamp_of(f);
        correction.support_records = support;
        corrections->push_back(std::move(correction));
      }
    }

    // `appear`: an episode shorter than T bounded by absence on both sides
    // (appear + disappear within a T-second window). Episodes touching the
    // stream boundary are not flagged — their true extent is unknown.
    for (const auto& episode : episodes) {
      if (episode.first_frame == 0 || episode.last_frame + 1 >= n) continue;
      // Duration measured absence-to-absence: the window containing both
      // the appear and the disappear transition.
      const double duration = timestamp_of(episode.last_frame + 1) -
                              timestamp_of(episode.first_frame - 1);
      if (duration >= threshold) continue;
      for (std::size_t f = episode.first_frame; f <= episode.last_frame;
           ++f) {
        severities[appear_col][example_of(f)] += 1.0;
      }
      if (corrections == nullptr) continue;
      for (std::size_t i = episode.begin; i < episode.end; ++i) {
        const ConsistencyRecord& record = records[presence[i].second];
        Correction correction;
        correction.kind = CorrectionKind::kRemoveOutput;
        correction.group = group;
        correction.identifier = identifier;
        correction.example_index = record.example_index;
        correction.timestamp = record.timestamp;
        correction.output_index = record.output_index;
        corrections->push_back(std::move(correction));
      }
    }
  }
  return severities;
}

}  // namespace omg::core
