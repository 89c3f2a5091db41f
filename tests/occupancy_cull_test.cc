/**
 * @file
 * Differential test of occupied-extent culling: the culled
 * OccupancyGrid::rayHitsOccupied and RaySampler::sample against the
 * whole-bounds reference marches (occupancy_reference.hh), over
 * generated adversarial rays and grids. The bool and every RaySample
 * field must match bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nerf/sampler.hh"
#include "occupancy_reference.hh"
#include "scene/scene.hh"
#include "test_util.hh"

namespace cicero {
namespace {

const std::vector<std::uint64_t> kSeeds = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr int kRaysPerKind = 48;

/** One grid under test, with the field it was baked from. */
struct GridCase
{
    std::string name;
    AnalyticField field;
    int res;
    float sigma;
};

/** A field whose only raw occupied cell is (3, 9, 12) of a 16^3 grid. */
AnalyticField
oneCellField()
{
    AnalyticField f;
    Primitive dot;
    dot.shape = PrimShape::Sphere;
    const float cell = 2.0f / 16.0f;
    dot.center = {-1.0f + 3.5f * cell, -1.0f + 9.5f * cell,
                  -1.0f + 12.5f * cell};
    dot.size = {0.02f, 0.02f, 0.02f};
    dot.softness = 0.005f;
    f.addPrimitive(dot);
    return f;
}

std::vector<GridCase>
gridCases()
{
    std::vector<GridCase> cases;
    const AnalyticField tiny = test::tinyScene().field;
    const AnalyticField lego = makeScene("lego").field;
    for (int res : {32, 48, 64}) {
        cases.push_back({"tiny" + std::to_string(res), tiny, res, 0.5f});
        cases.push_back({"lego" + std::to_string(res), lego, res, 0.5f});
    }
    cases.push_back({"empty", lego, 32, 1e30f});
    cases.push_back({"full", tiny, 24, -1.0f});
    cases.push_back({"onecell", oneCellField(), 16, 0.5f});
    return cases;
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return sameBits(a.x, b.x) && sameBits(a.y, b.y) && sameBits(a.z, b.z);
}

bool
sameSamples(const std::vector<RaySample> &a,
            const std::vector<RaySample> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBits(a[i].pos, b[i].pos) || !sameBits(a[i].pn, b[i].pn) ||
            !sameBits(a[i].t, b[i].t) || !sameBits(a[i].dt, b[i].dt))
            return false;
    return true;
}

std::string
describe(const Ray &r)
{
    std::ostringstream os;
    os.precision(9);
    os << "origin (" << r.origin.x << ", " << r.origin.y << ", "
       << r.origin.z << ") dir (" << r.dir.x << ", " << r.dir.y << ", "
       << r.dir.z << ")";
    return os.str();
}

Vec3
uniformIn(Rng &rng, const Aabb &box)
{
    return {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
            rng.uniform(box.lo.z, box.hi.z)};
}

Vec3
randomDir(Rng &rng)
{
    Vec3 d;
    do {
        d = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
             rng.uniform(-1.0f, 1.0f)};
    } while (d.norm() < 0.1f || d.norm() > 1.0f);
    // Directions need not be unit length; vary it.
    return d * rng.uniform(0.25f, 4.0f);
}

/** Coordinate on a grid plane of axis @p a, or a neighbor float. */
float
gridPlane(Rng &rng, const Aabb &bounds, int res, int a)
{
    int k = static_cast<int>(rng.uniformInt(res + 1));
    float c = bounds.lo[a] + bounds.extent()[a] * k / res;
    switch (rng.uniformInt(3)) {
      case 0: return c;
      case 1: return std::nextafter(c, 1e30f);
      default: return std::nextafter(c, -1e30f);
    }
}

/** Coordinate on a face of @p box along axis @p a, or a neighbor float. */
float
boxFace(Rng &rng, const Aabb &box, int a)
{
    float c = rng.uniformInt(2) ? box.lo[a] : box.hi[a];
    switch (rng.uniformInt(3)) {
      case 0: return c;
      case 1: return std::nextafter(c, 1e30f);
      default: return std::nextafter(c, -1e30f);
    }
}

/**
 * The adversarial ray set for @p grid and @p seed: cameras around the
 * scene, origins inside the volume and the occupied box, rays grazing
 * box faces and grid planes, axis-parallel rays with zero direction
 * components, and rays whose origin lies behind the box.
 */
std::vector<Ray>
adversarialRays(const OccupancyGrid &grid, std::uint64_t seed)
{
    Rng rng(seed);
    const Aabb &bounds = grid.bounds();
    const Vec3 e = bounds.extent();
    const Aabb box = grid.rawBox().value_or(bounds);
    const Aabb dilated = grid.occupiedBox().value_or(bounds);
    const Aabb around(bounds.lo - e * 0.25f, bounds.hi + e * 0.25f);
    std::vector<Ray> rays;

    // Cameras at 0.3x..3x the bounds radius, aimed into the box.
    for (int i = 0; i < kRaysPerKind; ++i) {
        Vec3 from = bounds.center() +
                    randomDir(rng).normalized() * e.norm() *
                        rng.uniform(0.3f, 3.0f);
        Vec3 at = uniformIn(rng, box);
        rays.push_back({from, at - from});
    }
    // Origins inside the volume and inside both boxes.
    for (int i = 0; i < kRaysPerKind; ++i) {
        const Aabb &in = i % 3 == 0 ? bounds : i % 3 == 1 ? box : dilated;
        rays.push_back({uniformIn(rng, in), randomDir(rng)});
    }
    // Grazing: a point on a box face or grid plane of axis a, direction
    // in that plane or leaning off it by a tiny amount.
    for (int i = 0; i < kRaysPerKind; ++i) {
        int a = static_cast<int>(rng.uniformInt(3));
        Vec3 q = uniformIn(rng, around);
        switch (i % 3) {
          case 0: q[a] = boxFace(rng, box, a); break;
          case 1: q[a] = boxFace(rng, dilated, a); break;
          default: q[a] = gridPlane(rng, bounds, grid.res(), a); break;
        }
        Vec3 d = randomDir(rng);
        const float lean[] = {0.0f, -0.0f, 1e-13f, -1e-7f, 1e-5f, -1e-3f};
        d[a] = lean[rng.uniformInt(6)];
        rays.push_back({q - d * rng.uniform(0.5f, 3.0f), d});
    }
    // Axis-parallel: one or two direction components exactly zero, the
    // origin often on a grid plane of the zeroed axes.
    for (int i = 0; i < kRaysPerKind; ++i) {
        Vec3 o = uniformIn(rng, around);
        Vec3 d = randomDir(rng);
        int keep = static_cast<int>(rng.uniformInt(3));
        bool twoZero = rng.uniformInt(2);
        for (int a = 0; a < 3; ++a) {
            if (a == keep || (!twoZero && a == (keep + 1) % 3))
                continue;
            d[a] = rng.uniformInt(2) ? 0.0f : -0.0f;
            if (rng.uniformInt(2))
                o[a] = rng.uniformInt(2) ? gridPlane(rng, bounds, grid.res(), a)
                                         : boxFace(rng, box, a);
        }
        rays.push_back({o, d});
    }
    // From behind: the origin past the box, looking further away, or
    // just behind one of its faces looking along it.
    for (int i = 0; i < kRaysPerKind; ++i) {
        Vec3 away = randomDir(rng).normalized();
        Vec3 o = box.center() + away * (0.5f * box.extent().norm() +
                                        rng.uniform(0.0f, 1.0f));
        Vec3 d = i % 2 ? away + randomDir(rng) * 0.2f : away;
        if (i % 4 == 3) {
            int a = static_cast<int>(rng.uniformInt(3));
            o = uniformIn(rng, box);
            o[a] = box.hi[a] + rng.uniform(0.0f, 1e-3f);
            d = randomDir(rng);
            d[a] = std::fabs(d[a]);
        }
        rays.push_back({o, d});
    }
    return rays;
}

class OccupancyCullTest : public ::testing::TestWithParam<int>
{
  protected:
    GridCase gridCase() const { return gridCases()[GetParam()]; }
};

TEST_P(OccupancyCullTest, VoidTestMatchesWholeBoundsMarch)
{
    const GridCase c = gridCase();
    const OccupancyGrid grid(c.field, c.res, c.sigma);
    std::size_t hits = 0, rays = 0;
    for (std::uint64_t seed : kSeeds) {
        for (const Ray &ray : adversarialRays(grid, seed)) {
            const bool want = test::referenceRayHitsOccupied(grid, ray);
            ASSERT_EQ(grid.rayHitsOccupied(ray), want)
                << c.name << " seed " << seed << " " << describe(ray);
            hits += want;
            ++rays;
        }
    }
    if (grid.rawBox()) {
        EXPECT_GT(hits, 0u) << c.name;
    }
    if (c.name != "full") {
        EXPECT_LT(hits, rays) << c.name;
    }
}

TEST_P(OccupancyCullTest, SamplerMatchesWholeBoundsMarch)
{
    const GridCase c = gridCase();
    const OccupancyGrid grid(c.field, c.res, c.sigma);
    SamplerConfig uncapped;
    SamplerConfig capped;
    capped.stepsAcross = 97;
    capped.maxSamplesPerRay = 5;
    std::vector<RaySample> got, want;
    std::size_t samples = 0;
    for (const SamplerConfig &cfg : {uncapped, capped}) {
        const RaySampler sampler(grid.bounds(), &grid, cfg);
        for (std::uint64_t seed : kSeeds) {
            for (const Ray &ray : adversarialRays(grid, seed)) {
                const int n =
                    test::referenceSample(grid.bounds(), &grid, cfg, ray,
                                          want);
                ASSERT_EQ(sampler.sample(ray, got), n)
                    << c.name << " seed " << seed << " " << describe(ray);
                ASSERT_TRUE(sameSamples(got, want))
                    << c.name << " seed " << seed << " " << describe(ray);
                samples += want.size();
            }
        }
    }
    if (grid.occupiedBox()) {
        EXPECT_GT(samples, 0u) << c.name;
    }
}

TEST_P(OccupancyCullTest, BoxesEncloseEveryOccupiedCell)
{
    const GridCase c = gridCase();
    const OccupancyGrid grid(c.field, c.res, c.sigma);
    const Aabb &b = grid.bounds();
    const Vec3 e = b.extent();
    std::size_t raw = 0, dilated = 0;
    for (int z = 0; z < c.res; ++z)
        for (int y = 0; y < c.res; ++y)
            for (int x = 0; x < c.res; ++x) {
                const Vec3 lo{b.lo.x + e.x * x / c.res,
                              b.lo.y + e.y * y / c.res,
                              b.lo.z + e.z * z / c.res};
                const Vec3 hi{b.lo.x + e.x * (x + 1) / c.res,
                              b.lo.y + e.y * (y + 1) / c.res,
                              b.lo.z + e.z * (z + 1) / c.res};
                const Vec3 mid = (lo + hi) * 0.5f;
                if (grid.rawCell(x, y, z)) {
                    ++raw;
                    ASSERT_TRUE(grid.rawBox());
                    EXPECT_TRUE(grid.rawBox()->contains(lo));
                    EXPECT_TRUE(grid.rawBox()->contains(hi));
                }
                if (grid.occupiedNormalized(b.normalize(mid))) {
                    ++dilated;
                    ASSERT_TRUE(grid.occupiedBox());
                    EXPECT_TRUE(grid.occupiedBox()->contains(lo));
                    EXPECT_TRUE(grid.occupiedBox()->contains(hi));
                }
            }
    EXPECT_EQ(grid.rawBox().has_value(), raw > 0);
    EXPECT_EQ(grid.occupiedBox().has_value(), dilated > 0);
    if (c.name == "empty") {
        EXPECT_EQ(raw, 0u);
    }
    if (c.name == "full") {
        EXPECT_EQ(raw, static_cast<std::size_t>(c.res) * c.res * c.res);
    }
    if (c.name == "onecell") {
        EXPECT_EQ(raw, 1u);
        EXPECT_TRUE(grid.rawCell(3, 9, 12));
        EXPECT_EQ(dilated, 27u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, OccupancyCullTest,
    ::testing::Range(0, static_cast<int>(gridCases().size())),
    [](const ::testing::TestParamInfo<int> &info) {
        return gridCases()[info.param].name;
    });

} // namespace
} // namespace cicero
