#include "nerf/sampler.hh"

#include <cassert>
#include <cmath>
#include <limits>

namespace cicero {

namespace {

constexpr float kInfinity = std::numeric_limits<float>::infinity();

/**
 * World box of the cells whose indices @p cells spans, grown by the
 * grid's margin; empty when @p cells spans none.
 */
std::optional<Aabb>
cellBox(const Aabb &cells, const Aabb &bounds, int res)
{
    if (!cells.valid())
        return std::nullopt;
    Vec3 e = bounds.extent();
    Vec3 margin = e * OccupancyGrid::kBoxMargin;
    return Aabb(bounds.lo + e * cells.lo / res - margin,
                bounds.lo + e * (cells.hi + Vec3{1.0f}) / res + margin);
}

} // namespace

OccupancyGrid::OccupancyGrid(const AnalyticField &field, int res,
                             float sigmaThresh)
    : _res(res), _bounds(field.bounds()),
      _cells(static_cast<std::size_t>(res) * res * res, 0)
{
    assert(res >= 2);
    Vec3 e = _bounds.extent();
    // Sample cell centers, then dilate by one cell so thin or grazing
    // features are never skipped.
    _raw.assign(_cells.size(), 0);
    std::vector<char> &raw = _raw;
    Aabb rawCells, occupiedCells; // index ranges of the occupied cells
    for (int z = 0; z < res; ++z) {
        for (int y = 0; y < res; ++y) {
            for (int x = 0; x < res; ++x) {
                Vec3 p{_bounds.lo.x + e.x * (x + 0.5f) / res,
                       _bounds.lo.y + e.y * (y + 0.5f) / res,
                       _bounds.lo.z + e.z * (z + 0.5f) / res};
                raw[idx(x, y, z)] = field.density(p) > sigmaThresh;
                if (raw[idx(x, y, z)])
                    rawCells.expand(Vec3(x, y, z));
            }
        }
    }
    for (int z = 0; z < res; ++z) {
        for (int y = 0; y < res; ++y) {
            for (int x = 0; x < res; ++x) {
                bool occ = false;
                for (int dz = -1; dz <= 1 && !occ; ++dz) {
                    for (int dy = -1; dy <= 1 && !occ; ++dy) {
                        for (int dx = -1; dx <= 1 && !occ; ++dx) {
                            int nx = x + dx, ny = y + dy, nz = z + dz;
                            if (nx < 0 || ny < 0 || nz < 0 || nx >= res ||
                                ny >= res || nz >= res)
                                continue;
                            occ = raw[idx(nx, ny, nz)];
                        }
                    }
                }
                _cells[idx(x, y, z)] = occ;
                if (occ)
                    occupiedCells.expand(Vec3(x, y, z));
            }
        }
    }
    _rawBox = cellBox(rawCells, _bounds, res);
    _cellBox = cellBox(occupiedCells, _bounds, res);
}

bool
OccupancyGrid::occupiedNormalized(const Vec3 &pn) const
{
    int x = clamp(static_cast<int>(pn.x * _res), 0, _res - 1);
    int y = clamp(static_cast<int>(pn.y * _res), 0, _res - 1);
    int z = clamp(static_cast<int>(pn.z * _res), 0, _res - 1);
    return _cells[idx(x, y, z)];
}

bool
OccupancyGrid::occupied(const Vec3 &p) const
{
    if (!_bounds.contains(p))
        return false;
    return occupiedNormalized(_bounds.normalize(p));
}

bool
OccupancyGrid::rayHitsOccupied(const Ray &ray) const
{
    if (!_rawBox)
        return false;
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return false;
    auto span = _rawBox->intersect(ray);
    if (!span)
        return false;
    auto [t0, t1] = *hit;
    float cell = _bounds.extent().minComponent() / _res;
    float step = 0.5f * cell;
    // Same t sequence as a march over the whole bounds; only the
    // samples within a step of the occupied box are looked up
    // (t < end means t < t1 and t <= exit + step).
    const float first = span->first - step;
    const float end = std::fmin(t1, std::nextafter(span->second + step,
                                                   kInfinity));
    float t = t0 + 0.5f * step;
    while (t < first && t < end)
        t += step;
    for (; t < end; t += step) {
        Vec3 p = ray.at(t);
        if (!_bounds.contains(p))
            continue;
        Vec3 pn = _bounds.normalize(p);
        int x = clamp(static_cast<int>(pn.x * _res), 0, _res - 1);
        int y = clamp(static_cast<int>(pn.y * _res), 0, _res - 1);
        int z = clamp(static_cast<int>(pn.z * _res), 0, _res - 1);
        if (_raw[idx(x, y, z)])
            return true;
    }
    return false;
}

double
OccupancyGrid::occupancyFraction() const
{
    std::size_t occ = 0;
    for (char c : _cells)
        occ += c;
    return static_cast<double>(occ) / _cells.size();
}

RaySampler::RaySampler(const Aabb &bounds, const OccupancyGrid *occupancy,
                       const SamplerConfig &config)
    : _bounds(bounds), _occupancy(occupancy), _config(config),
      _step(bounds.extent().norm() / config.stepsAcross)
{
    assert(!occupancy || (occupancy->bounds().lo == bounds.lo &&
                          occupancy->bounds().hi == bounds.hi));
}

int
RaySampler::sample(const Ray &ray, std::vector<RaySample> &out) const
{
    out.clear();
    auto hit = _bounds.intersect(ray);
    if (!hit)
        return 0;
    auto [t0, t1] = *hit;

    // Same t sequence as a lookup at every step; only the samples
    // within a step of the occupied box are looked up
    // (t < end means t < t1 and t <= exit + step).
    float first = -kInfinity;
    float end = t1;
    if (_occupancy) {
        const std::optional<Aabb> &box = _occupancy->occupiedBox();
        if (!box)
            return 0;
        auto span = box->intersect(ray);
        if (!span)
            return 0;
        first = span->first - _step;
        end = std::fmin(t1, std::nextafter(span->second + _step,
                                           kInfinity));
    }
    float t = t0 + 0.5f * _step;
    while (t < first && t < end)
        t += _step;

    Vec3 e = _bounds.extent();
    for (; t < end &&
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

} // namespace cicero
