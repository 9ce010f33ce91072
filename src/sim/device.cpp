#include "sim/device.hpp"

#include <algorithm>

namespace edgeis::sim {

DeviceProfile jetson_tx2() {
  DeviceProfile p;
  p.name = "jetson-tx2";
  p.model_compute_scale = 1.0;  // reference device for model latencies
  p.cpu_scale = 1.4;
  p.cpu_cores = 6;
  p.idle_power_w = 5.0;
  p.busy_power_w = 10.0;
  p.battery_wh = 0.0;  // mains powered
  return p;
}

DeviceProfile jetson_agx_xavier() {
  DeviceProfile p;
  p.name = "jetson-agx-xavier";
  p.model_compute_scale = 0.45;  // ~2.2x TX2 for vision DNNs
  p.cpu_scale = 1.0;
  p.cpu_cores = 8;
  p.idle_power_w = 10.0;
  p.busy_power_w = 22.0;
  p.battery_wh = 0.0;
  return p;
}

DeviceProfile iphone11() {
  DeviceProfile p;
  p.name = "iphone-11";
  // DNN inference via TFLite on mobile is ~12x slower than TX2 GPU for
  // heavy two-stage models (the pure-mobile baseline of Section VI-B).
  p.model_compute_scale = 12.0;
  p.cpu_scale = 1.0;
  p.cpu_cores = 6;
  p.idle_power_w = 0.9;
  p.busy_power_w = 2.6;
  p.radio_nj_per_byte = 90.0;
  p.battery_wh = 11.91;
  return p;
}

DeviceProfile galaxy_s10() {
  DeviceProfile p;
  p.name = "galaxy-s10";
  p.model_compute_scale = 14.0;
  p.cpu_scale = 1.15;
  p.cpu_cores = 8;
  p.idle_power_w = 1.0;
  p.busy_power_w = 3.0;
  p.radio_nj_per_byte = 100.0;
  p.battery_wh = 12.94;
  return p;
}

DeviceProfile dream_glass() {
  DeviceProfile p;
  p.name = "dream-glass";
  p.model_compute_scale = 16.0;
  p.cpu_scale = 1.3;
  p.cpu_cores = 4;
  p.idle_power_w = 1.2;
  p.busy_power_w = 3.2;
  p.radio_nj_per_byte = 110.0;
  p.battery_wh = 9.0;
  return p;
}

void ResourceMonitor::record_frame(double busy_ms, std::size_t map_bytes,
                                   std::size_t tx_bytes,
                                   bool radio_listening) {
  ++frames_;
  busy_ms_total_ += busy_ms;
  peak_memory_ = std::max(peak_memory_, map_bytes);

  const double utilization =
      std::min(1.0, busy_ms / std::max(1e-9, frame_budget_ms_));
  const double frame_s = frame_budget_ms_ / 1000.0;
  energy_j_ += (profile_.idle_power_w +
                profile_.busy_power_w * utilization) * frame_s;
  energy_j_ += profile_.radio_nj_per_byte * static_cast<double>(tx_bytes) * 1e-9;
  if (radio_listening) {
    energy_j_ += profile_.radio_listen_w * frame_s;
  }
}

double ResourceMonitor::mean_cpu_utilization() const {
  if (frames_ == 0) return 0.0;
  const double mean_busy = busy_ms_total_ / frames_;
  return std::min(1.0, mean_busy / frame_budget_ms_);
}

}  // namespace edgeis::sim
