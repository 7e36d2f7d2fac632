// Allocation counts for work that claims to allocate nothing per unit.
//
// Every global operator new and delete is replaced below by a version that
// counts its calls in a thread-local counter, so allocations made on other
// threads never land in a count taken on this one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* Allocate(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) noexcept {
  ++t_allocations;
  // aligned_alloc takes a whole number of alignments.
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return OrThrow(Allocate(size)); }
void* operator new[](std::size_t size) { return OrThrow(Allocate(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(AllocateAligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(AllocateAligned(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace omg::nn {
namespace {

/// Heap allocations a fresh SoftmaxTrainer's Train makes over `epochs` on
/// the detector's model shape, 8 -> 24 -> 2, and 300 weighted rows: at
/// batch 32 that is 10 steps an epoch, the last one of 12 rows.
std::size_t TrainAllocations(std::size_t epochs) {
  common::Rng data_rng(41);
  Dataset data;
  for (std::size_t r = 0; r < 300; ++r) {
    std::vector<double> features(8);
    for (double& v : features) {
      v = data_rng.Bernoulli(0.1) ? 0.0 : data_rng.Normal();
    }
    data.Add(std::move(features), r % 2, r % 3 == 0 ? 0.5 : 1.0);
  }
  common::Rng model_rng(42);
  Mlp model(MlpConfig{8, {24}, 2}, model_rng);
  SoftmaxTrainer trainer(SgdConfig{0.02, 0.9, 1e-4, 32, epochs});
  common::Rng train_rng(43);
  const std::size_t before = t_allocations;
  trainer.Train(model, data, train_rng);
  return t_allocations - before;
}

// A step allocates nothing: Train sizes its workspace and its row order
// once, so 20 epochs (200 steps) allocate exactly as often as 1 (10).
TEST(AllocCounts, TrainStepsAllocateNothing) {
  const std::size_t one_epoch = TrainAllocations(1);
  EXPECT_GT(one_epoch, 0u);  // the workspace: the counter sees it
  EXPECT_EQ(TrainAllocations(20), one_epoch);
}

}  // namespace
}  // namespace omg::nn
