// Device models: compute-speed scaling for the edge GPUs and mobile SoCs
// the paper deploys on, per-frame mobile-side cost accounting (feature
// extraction, tracking, mask transfer, encoding), and the CPU / memory /
// power models behind Fig. 15 and the power-consumption study (VI-F).
//
// All model latencies in segnet::ModelProfile are referenced to a Jetson
// TX2; a device's `model_compute_scale` multiplies them.
#pragma once

#include <cstddef>
#include <string>

namespace edgeis::sim {

struct DeviceProfile {
  std::string name;
  /// Multiplier on segnet model latencies (TX2 = 1.0; smaller = faster).
  double model_compute_scale = 1.0;
  /// Multiplier on mobile-side CPU work (iPhone 11 = 1.0).
  double cpu_scale = 1.0;
  int cpu_cores = 6;
  /// Power model: P = idle + busy * cpu_utilization + per-byte radio cost.
  double idle_power_w = 0.9;
  double busy_power_w = 2.6;       // at 100% of one sustained core budget
  double radio_nj_per_byte = 90.0; // WiFi transmit energy
  /// Extra draw while the radio stays awake awaiting an edge response
  /// (request outstanding); retransmission storms show up as battery cost.
  double radio_listen_w = 0.15;
  double battery_wh = 11.91;       // iPhone 11
};

DeviceProfile jetson_tx2();
DeviceProfile jetson_agx_xavier();
DeviceProfile iphone11();
DeviceProfile galaxy_s10();
DeviceProfile dream_glass();  // tethered AR glasses (field study)

/// Per-frame cost model of the mobile pipeline stages, milliseconds on the
/// reference mobile device (iPhone 11); scaled by DeviceProfile::cpu_scale.
struct MobileCostModel {
  double feature_extract_base_ms = 6.0;
  double feature_extract_us_per_feature = 4.5;
  double track_us_per_matched_point = 12.0;
  double pnp_ms_per_solve = 0.8;
  double transfer_us_per_contour_point = 8.0;
  double encode_us_per_tile = 20.0;
  double render_ms = 2.0;

  [[nodiscard]] double frame_ms(int features, int matched, int pnp_solves,
                                int contour_points, int tiles_encoded) const {
    return feature_extract_base_ms +
           feature_extract_us_per_feature * features / 1000.0 +
           track_us_per_matched_point * matched / 1000.0 +
           pnp_ms_per_solve * pnp_solves +
           transfer_us_per_contour_point * contour_points / 1000.0 +
           encode_us_per_tile * tiles_encoded / 1000.0 + render_ms;
  }
};

/// Tracks CPU utilization, memory and battery over a run (Fig. 15 / VI-F2).
class ResourceMonitor {
 public:
  ResourceMonitor(DeviceProfile profile, double fps)
      : profile_(std::move(profile)), frame_budget_ms_(1000.0 / fps) {}

  /// Record one processed frame: busy CPU milliseconds spent, current map
  /// memory, bytes transmitted this frame. `radio_listening` marks frames
  /// spent with a request outstanding (radio held awake for the response).
  void record_frame(double busy_ms, std::size_t map_bytes,
                    std::size_t tx_bytes, bool radio_listening = false);

  [[nodiscard]] double mean_cpu_utilization() const;  // [0, 1] of one core budget
  [[nodiscard]] std::size_t peak_memory_bytes() const { return peak_memory_; }
  [[nodiscard]] std::size_t last_memory_bytes() const { return last_memory_; }
  [[nodiscard]] double energy_joules() const { return energy_j_; }
  /// Battery percentage consumed so far.
  [[nodiscard]] double battery_percent() const {
    return energy_j_ / (profile_.battery_wh * 3600.0) * 100.0;
  }
  [[nodiscard]] int frames() const { return frames_; }

 private:
  DeviceProfile profile_;
  double frame_budget_ms_;
  double busy_ms_total_ = 0.0;
  double energy_j_ = 0.0;
  std::size_t peak_memory_ = 0;
  std::size_t last_memory_ = 0;
  int frames_ = 0;
};

}  // namespace edgeis::sim
