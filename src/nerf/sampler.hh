/**
 * @file
 * Ray sampling: uniform marching through the scene AABB with
 * occupancy-grid empty-space skipping (the coarse grid every modern
 * NeRF model maintains).
 */

#ifndef CICERO_NERF_SAMPLER_HH
#define CICERO_NERF_SAMPLER_HH

#include <optional>
#include <vector>

#include "common/geometry.hh"
#include "scene/field.hh"

namespace cicero {

/** Sampling parameters. */
struct SamplerConfig
{
    int stepsAcross = 192;    //!< uniform steps across the AABB diagonal
    int maxSamplesPerRay = 256;
    int occupancyRes = 64;    //!< occupancy grid voxels per axis
    float occupancySigma = 0.5f; //!< density threshold for "occupied"
};

/**
 * A binary occupancy grid over the scene bounds, baked from the analytic
 * field with one voxel of dilation. Also provides the cheap
 * ray-vs-occupancy test SPARW uses to separate void from disocclusion.
 *
 * Construction also records the world-space box around the occupied
 * raw cells and the one around the occupied dilated cells, each grown
 * by a small margin (kBoxMargin of the bounds extent per axis). The
 * marches use them to skip the parts of a ray that cannot reach an
 * occupied cell. A grid without occupied cells has no box.
 */
class OccupancyGrid
{
  public:
    OccupancyGrid(const AnalyticField &field, int res, float sigmaThresh);

    int res() const { return _res; }
    const Aabb &bounds() const { return _bounds; }

    /** Occupancy (dilated) at normalized position @p pn in [0,1]^3. */
    bool occupiedNormalized(const Vec3 &pn) const;

    /** Occupancy (dilated) at world position @p p. */
    bool occupied(const Vec3 &p) const;

    /** Raw (un-dilated) occupancy of cell (@p x, @p y, @p z). */
    bool rawCell(int x, int y, int z) const { return _raw[idx(x, y, z)]; }

    /** Margin the occupied boxes are grown by, as a fraction of the
     *  bounds extent per axis. */
    static constexpr float kBoxMargin = 1e-3f;

    /** World box around the raw occupied cells (plus margin); empty
     *  when no cell is occupied. */
    const std::optional<Aabb> &rawBox() const { return _rawBox; }

    /** World box around the dilated occupied cells (plus margin);
     *  empty when no cell is occupied. */
    const std::optional<Aabb> &occupiedBox() const { return _cellBox; }

    /**
     * March @p ray through the bounds at half-cell steps
     * (t = t0 + step / 2, then t += step, t0 the bounds entry) and test
     * each sample's cell. Uses the *raw* (un-dilated) occupancy: the
     * dilation exists to keep sampling conservative, but the SPARW void
     * test wants the tight surface so silhouette-adjacent background
     * pixels classify as void rather than triggering needless sparse
     * rendering.
     *
     * Only the part of the march near rawBox() is looked up: a ray that
     * misses the box returns false at once, and samples more than one
     * step before the box entry or past its exit are not tested. The
     * t sequence is the one a march over the whole bounds would take,
     * every sample that lands in a raw occupied cell lies inside the
     * box, and the box margin and the one-step slack absorb float
     * rounding, so the result equals the whole-bounds march bit for
     * bit.
     *
     * @return true if any occupied cell is crossed (SPARW's depth test).
     */
    bool rayHitsOccupied(const Ray &ray) const;

    /** Fraction of occupied cells (diagnostics). */
    double occupancyFraction() const;

  private:
    std::size_t idx(int x, int y, int z) const
    {
        return (static_cast<std::size_t>(z) * _res + y) * _res + x;
    }

    int _res;
    Aabb _bounds;
    std::vector<char> _cells; //!< dilated occupancy (sampling)
    std::vector<char> _raw;   //!< un-dilated occupancy (void test)
    std::optional<Aabb> _rawBox;  //!< around _raw's occupied cells
    std::optional<Aabb> _cellBox; //!< around _cells' occupied cells
};

/** One ray sample produced by the sampler. */
struct RaySample
{
    Vec3 pos;  //!< world position
    Vec3 pn;   //!< normalized [0,1]^3 position
    float t;   //!< ray parameter
    float dt;  //!< segment length for compositing
};

/**
 * Uniform ray marcher with occupancy skipping: samples at
 * t = t0 + step / 2, then t += step, across the bounds, keeping those
 * whose dilated occupancy cell is set (all of them without a grid).
 *
 * With a grid, only the part of the march near its occupiedBox() is
 * looked up: a ray that misses the box yields no samples, and samples
 * more than one step before the box entry or past its exit are skipped
 * without a lookup. The t sequence is unchanged, every sample that
 * lands in an occupied cell lies inside the box, and the box margin and
 * the one-step slack absorb float rounding, so the output equals a
 * lookup at every step bit for bit.
 */
class RaySampler
{
  public:
    /** @p occupancy, when set, must be baked over @p bounds. */
    RaySampler(const Aabb &bounds, const OccupancyGrid *occupancy,
               const SamplerConfig &config);

    /**
     * Sample @p ray; appends to @p out (which is cleared first).
     * @return number of samples produced.
     */
    int sample(const Ray &ray, std::vector<RaySample> &out) const;

    float stepSize() const { return _step; }
    const SamplerConfig &config() const { return _config; }

  private:
    Aabb _bounds;
    const OccupancyGrid *_occupancy;
    SamplerConfig _config;
    float _step;
};

} // namespace cicero

#endif // CICERO_NERF_SAMPLER_HH
