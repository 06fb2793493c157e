// Per-SSD device model: pure accounting (bytes per stream and in total).
// Timing lives in one place, lss::DeviceLanes, whose service_time_us is
// THE timing formula of the device layer; nothing here models latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace adapt::array {

struct SsdDeviceConfig {
  std::uint32_t num_streams = 8;
};

class SsdDevice {
 public:
  explicit SsdDevice(const SsdDeviceConfig& config);

  const SsdDeviceConfig& config() const noexcept { return config_; }

  /// Records a write of `bytes` on `stream`.
  void write(std::uint32_t stream, std::uint64_t bytes);

  std::uint64_t bytes_written() const noexcept {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t stream_bytes(std::uint32_t stream) const;

 private:
  SsdDeviceConfig config_;
  std::atomic<std::uint64_t> bytes_written_{0};
  std::vector<std::atomic<std::uint64_t>> stream_bytes_;
};

}  // namespace adapt::array
