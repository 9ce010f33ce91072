// Row-band rendering. Internal to the scene library: SceneSimulator's
// render() and unoccluded_mask() are these functions with the band count
// that default_count() picks, and the tests pin other counts. No output
// depends on the count (DESIGN.md §9, "Band parallelism").
#pragma once

#include "image/image.hpp"
#include "scene/mesh.hpp"
#include "scene/scene.hpp"

namespace edgeis::scene::bands {

/// The band count of a `height`-row frame: 1 on a one-lane pool, else a
/// few per lane, at most one per row.
int default_count(int height);

/// SceneSimulator(config).render(frame_index), where `room` is the
/// simulator's room mesh, drawn in `bands` >= 1 row bands.
RenderedFrame render(const SceneConfig& config, const Mesh& room,
                     int frame_index, int bands);

/// The instance-id buffer behind SceneSimulator::unoccluded_mask, drawn
/// in `bands` >= 1 row bands.
img::IdImage unoccluded_ids(const SceneConfig& config, int frame_index,
                            int object_index, int bands);

}  // namespace edgeis::scene::bands
