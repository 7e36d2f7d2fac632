#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "bench.hpp"

namespace wirebench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntilNs(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

ProcCounters ProcCounters::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime), usage.ru_nvcsw};
}

namespace {

std::uint64_t startup_rss = 0;

std::uint64_t ReadRss(int fd) {
  char buffer[128] = {};
  if (fd < 0 || ::pread(fd, buffer, sizeof(buffer) - 1, 0) <= 0) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (std::sscanf(buffer, "%llu %llu", &size, &resident) != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

double HostStealSeconds() {
  const int fd = ::open("/proc/stat", O_RDONLY);
  char buffer[256] = {};
  const ssize_t read = fd >= 0 ? ::pread(fd, buffer, sizeof(buffer) - 1, 0)
                               : -1;
  if (fd >= 0) ::close(fd);
  // "cpu  user nice system idle iowait irq softirq steal ...", in ticks.
  unsigned long long fields[8] = {};
  if (read <= 0 ||
      std::sscanf(buffer, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &fields[0], &fields[1], &fields[2], &fields[3], &fields[4],
                  &fields[5], &fields[6], &fields[7]) != 8) {
    return 0.0;
  }
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

void RecordStartupRss() {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  startup_rss = ReadRss(fd);
  if (fd >= 0) ::close(fd);
}

RssPeak::RssPeak() : fd_(::open("/proc/self/statm", O_RDONLY)) {
  base_ = Read();
  peak_ = base_;
}

RssPeak::~RssPeak() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t RssPeak::Read() const { return ReadRss(fd_); }

void RssPeak::Sample() { peak_ = std::max(peak_, Read()); }

double RssPeak::TakeWindowMb() {
  Sample();
  const double mb = static_cast<double>(startup_rss + peak_ - base_) /
                    (1024.0 * 1024.0);
  peak_ = base_;
  return mb;
}

}  // namespace wirebench
