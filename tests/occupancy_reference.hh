/**
 * @file
 * Slow reference occupancy marches for differential tests: the
 * whole-bounds loops OccupancyGrid::rayHitsOccupied and
 * RaySampler::sample ran before occupied-extent culling, copied
 * verbatim apart from reaching the grid through its public accessors.
 * The culled versions must match them bit for bit.
 */

#ifndef CICERO_TESTS_OCCUPANCY_REFERENCE_HH
#define CICERO_TESTS_OCCUPANCY_REFERENCE_HH

#include <vector>

#include "nerf/sampler.hh"

namespace cicero::test {

/** SPARW's void test, marching the whole bounds at half-cell steps. */
inline bool
referenceRayHitsOccupied(const OccupancyGrid &grid, const Ray &ray)
{
    const Aabb &_bounds = grid.bounds();
    const int _res = grid.res();
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return false;
    auto [t0, t1] = *hit;
    float cell = _bounds.extent().minComponent() / _res;
    float step = 0.5f * cell;
    for (float t = t0 + 0.5f * step; t < t1; t += step) {
        Vec3 p = ray.at(t);
        if (!_bounds.contains(p))
            continue;
        Vec3 pn = _bounds.normalize(p);
        int x = clamp(static_cast<int>(pn.x * _res), 0, _res - 1);
        int y = clamp(static_cast<int>(pn.y * _res), 0, _res - 1);
        int z = clamp(static_cast<int>(pn.z * _res), 0, _res - 1);
        if (grid.rawCell(x, y, z))
            return true;
    }
    return false;
}

/**
 * The ray sampler with a dilated-occupancy lookup at every step of the
 * whole bounds (a RaySampler built from @p bounds, @p occupancy and
 * @p config).
 */
inline int
referenceSample(const Aabb &_bounds, const OccupancyGrid *_occupancy,
                const SamplerConfig &_config, const Ray &ray,
                std::vector<RaySample> &out)
{
    const float _step = _bounds.extent().norm() / _config.stepsAcross;
    out.clear();
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return 0;
    auto [t0, t1] = *hit;

    Vec3 e = _bounds.extent();
    for (float t = t0 + 0.5f * _step;
         t < t1 &&
         static_cast<int>(out.size()) < _config.maxSamplesPerRay;
         t += _step) {
        Vec3 p = ray.at(t);
        Vec3 pn{(p.x - _bounds.lo.x) / e.x, (p.y - _bounds.lo.y) / e.y,
                (p.z - _bounds.lo.z) / e.z};
        if (_occupancy && !_occupancy->occupiedNormalized(pn))
            continue;
        out.push_back(RaySample{p, pn, t, _step});
    }
    return static_cast<int>(out.size());
}

} // namespace cicero::test

#endif // CICERO_TESTS_OCCUPANCY_REFERENCE_HH
