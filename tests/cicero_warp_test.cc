/**
 * @file
 * Tests for the SPARW warping core (Eqs. 1-4): identity warps,
 * translation geometry, hole classification and the ϕ heuristic.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cicero/warp.hh"
#include "nerf/renderer.hh"
#include "occupancy_reference.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct WarpFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        model = test::tinyModel();
        refCam = test::tinyCamera(48);
        ref = model->render(refCam);
    }

    std::unique_ptr<NerfModel> model;
    Camera refCam;
    RenderResult ref;
};

TEST_F(WarpFixture, IdentityWarpIsLossless)
{
    WarpOutput w = warpFrame(ref.image, ref.depth, refCam, refCam,
                             &model->occupancy(),
                             model->scene().background);
    // Every covered pixel must reproduce exactly; holes only where the
    // reference had no depth.
    EXPECT_EQ(w.stats.disoccluded, 0u);
    for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 48; ++x) {
            if (std::isfinite(ref.depth.at(x, y))) {
                EXPECT_NEAR(w.image.at(x, y).x, ref.image.at(x, y).x,
                            1e-5f);
                EXPECT_NEAR(w.image.at(x, y).y, ref.image.at(x, y).y,
                            1e-5f);
            }
        }
    }
}

TEST_F(WarpFixture, IdentityWarpPreservesDepth)
{
    WarpOutput w = warpFrame(ref.image, ref.depth, refCam, refCam,
                             &model->occupancy(),
                             model->scene().background);
    for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 48; ++x) {
            float d = ref.depth.at(x, y);
            if (std::isfinite(d)) {
                EXPECT_NEAR(w.depth.at(x, y), d, 1e-3f);
            }
        }
    }
}

TEST_F(WarpFixture, SmallRotationHighOverlap)
{
    auto traj = test::tinyOrbit(2, 20.0f); // ~0.67 deg/frame
    Camera ref2 = refCam;
    ref2.pose = traj[0];
    RenderResult r2 = model->render(ref2);
    Camera tgt = refCam;
    tgt.pose = traj[1];

    WarpOutput w = warpFrame(r2.image, r2.depth, ref2, tgt,
                             &model->occupancy(),
                             model->scene().background);
    // Fig. 7: the vast majority of pixels need no re-rendering.
    EXPECT_LT(w.stats.rerenderFraction(), 0.08);
    EXPECT_EQ(w.stats.totalPixels, 48u * 48);
    EXPECT_EQ(w.stats.warped + w.stats.voidHoles + w.stats.disoccluded,
              w.stats.totalPixels);
}

TEST_F(WarpFixture, LargerMotionMoreDisocclusion)
{
    auto slow = test::tinyOrbit(2, 10.0f);
    auto fast = test::tinyOrbit(2, 120.0f);
    auto disoccluded = [&](const std::vector<Pose> &traj) {
        Camera r = refCam;
        r.pose = traj[0];
        RenderResult rr = model->render(r);
        Camera t = refCam;
        t.pose = traj[1];
        WarpOutput w = warpFrame(rr.image, rr.depth, r, t,
                                 &model->occupancy(),
                                 model->scene().background);
        return w.stats.disoccluded;
    };
    EXPECT_LT(disoccluded(slow), disoccluded(fast));
}

TEST_F(WarpFixture, TranslationShiftsProjection)
{
    // Move the camera right: the (static) object should shift left in
    // the warped image.
    Camera tgt = refCam;
    tgt.pose.pos += tgt.pose.rot * Vec3{0.2f, 0.0f, 0.0f};
    WarpOutput w = warpFrame(ref.image, ref.depth, refCam, tgt,
                             &model->occupancy(),
                             model->scene().background);

    auto centroidX = [](const Image &img, const DepthMap &d) {
        double acc = 0.0;
        int n = 0;
        for (int y = 0; y < img.height(); ++y)
            for (int x = 0; x < img.width(); ++x)
                if (std::isfinite(d.at(x, y))) {
                    acc += x;
                    ++n;
                }
        return n ? acc / n : -1.0;
    };
    double refX = centroidX(ref.image, ref.depth);
    double warpX = centroidX(w.image, w.depth);
    EXPECT_LT(warpX, refX - 0.5);
}

TEST_F(WarpFixture, VoidHolesGetBackground)
{
    Camera tgt = refCam;
    tgt.pose.pos += tgt.pose.rot * Vec3{0.3f, 0.0f, 0.0f};
    WarpOutput w = warpFrame(ref.image, ref.depth, refCam, tgt,
                             &model->occupancy(),
                             model->scene().background);
    EXPECT_GT(w.stats.voidHoles, 0u);
    // Find a void hole: not covered, depth infinite, not in needRender.
    std::vector<bool> needs(48 * 48, false);
    for (auto id : w.needRender)
        needs[id] = true;
    int checked = 0;
    for (int y = 0; y < 48 && checked < 5; ++y) {
        for (int x = 0; x < 48 && checked < 5; ++x) {
            std::size_t id = y * 48 + x;
            if (!std::isfinite(w.depth.at(x, y)) && !needs[id]) {
                EXPECT_FLOAT_EQ(w.image.at(x, y).x,
                                model->scene().background.x);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST_F(WarpFixture, WithoutOccupancyAllHolesDisoccluded)
{
    Camera tgt = refCam;
    tgt.pose.pos += tgt.pose.rot * Vec3{0.3f, 0.0f, 0.0f};
    WarpOutput with = warpFrame(ref.image, ref.depth, refCam, tgt,
                                &model->occupancy(),
                                model->scene().background);
    WarpOutput without = warpFrame(ref.image, ref.depth, refCam, tgt,
                                   nullptr, model->scene().background);
    EXPECT_EQ(without.stats.voidHoles, 0u);
    EXPECT_GT(without.stats.disoccluded, with.stats.disoccluded);
}

TEST_F(WarpFixture, AngleThresholdRejectsWarps)
{
    auto traj = test::tinyOrbit(2, 240.0f); // 8 degrees per frame
    Camera r = refCam;
    r.pose = traj[0];
    RenderResult rr = model->render(r);
    Camera t = refCam;
    t.pose = traj[1];

    WarpParams loose;
    loose.maxAngleDeg = 180.0f;
    WarpParams tight;
    tight.maxAngleDeg = 1.0f;

    WarpOutput wl = warpFrame(rr.image, rr.depth, r, t,
                              &model->occupancy(),
                              model->scene().background, loose);
    WarpOutput wt = warpFrame(rr.image, rr.depth, r, t,
                              &model->occupancy(),
                              model->scene().background, tight);
    EXPECT_EQ(wl.stats.angleRejected, 0u);
    EXPECT_GT(wt.stats.angleRejected, 0u);
    // Rejected warps surface as extra NeRF work (quality knob ϕ,
    // Fig. 26: lower ϕ -> more re-rendering).
    EXPECT_GT(wt.needRender.size(), wl.needRender.size());
}

TEST_F(WarpFixture, ZeroAngleThresholdRejectsEverything)
{
    auto traj = test::tinyOrbit(2, 60.0f);
    Camera r = refCam;
    r.pose = traj[0];
    RenderResult rr = model->render(r);
    Camera t = refCam;
    t.pose = traj[1];
    WarpParams params;
    params.maxAngleDeg = 0.0f;
    WarpOutput w = warpFrame(rr.image, rr.depth, r, t,
                             &model->occupancy(),
                             model->scene().background, params);
    EXPECT_EQ(w.stats.warped, 0u);
}

TEST_F(WarpFixture, PointsTransformedCountsFiniteDepths)
{
    WarpOutput w = warpFrame(ref.image, ref.depth, refCam, refCam,
                             &model->occupancy(),
                             model->scene().background);
    std::uint64_t finite = 0;
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < 48; ++x)
            finite += std::isfinite(ref.depth.at(x, y));
    EXPECT_EQ(w.stats.pointsTransformed, finite);
}

TEST_F(WarpFixture, SparseRenderFillsDisocclusions)
{
    auto traj = test::tinyOrbit(2, 60.0f);
    Camera r = refCam;
    r.pose = traj[0];
    RenderResult rr = model->render(r);
    Camera t = refCam;
    t.pose = traj[1];
    WarpOutput w = warpFrame(rr.image, rr.depth, r, t,
                             &model->occupancy(),
                             model->scene().background);
    StageWork sparse =
        model->renderPixels(t, w.needRender, w.image, w.depth);
    EXPECT_EQ(sparse.rays, w.needRender.size());

    // Eq. 4 result approximates the full render.
    RenderResult full = model->render(t);
    EXPECT_GT(psnr(w.image, full.image), 25.0);
}

/**
 * Hole classification from hard poses equals a per-hole reclassification
 * with the whole-bounds reference march: cameras near and inside the
 * volume and large rotations, for each headline model over the tiny
 * scene and lego.
 */
TEST(WarpClassificationTest, MatchesReferenceMarchFromHardPoses)
{
    const int res = 40;
    std::uint64_t totalVoid = 0, totalDisoccluded = 0;
    for (const Scene &scene : {test::tinyScene(), makeScene("lego")}) {
        const Aabb &b = scene.field.bounds();
        const Vec3 c = b.center();
        const Vec3 up{0.0f, 1.0f, 0.0f};
        const float d = 0.5f * b.extent().norm() + 0.8f;
        auto orbitPose = [&](float deg) {
            const float a = deg2rad(deg);
            return Pose::lookAt(
                c + Vec3{d * std::sin(a), 0.4f * d, d * std::cos(a)}, c,
                up);
        };
        const Vec3 inside = c + b.extent() * Vec3{0.2f, 0.3f, 0.35f};
        const Vec3 near{c.x + 0.1f, c.y + 0.2f, b.hi.z + 0.05f};
        struct Case
        {
            Pose ref, tgt;
        };
        const std::vector<Case> cases = {
            {orbitPose(0.0f), orbitPose(110.0f)},      // large rotation
            {orbitPose(0.0f), Pose::lookAt(near, c, up)},
            {orbitPose(30.0f), Pose::lookAt(inside, c, up)},
            {Pose::lookAt(inside, c, up),              // turn in place
             Pose::lookAt(inside, c + Vec3{0.9f, -0.6f, 0.0f}, up)},
        };
        for (ModelKind kind : mainModelKinds()) {
            std::unique_ptr<NerfModel> model = buildModel(kind, scene);
            const OccupancyGrid &grid = model->occupancy();
            for (const Case &k : cases) {
                const Camera refCam =
                    Camera::fromFov(res, res, scene.fovYDeg, k.ref);
                const Camera tgtCam =
                    Camera::fromFov(res, res, scene.fovYDeg, k.tgt);
                const RenderResult r = model->render(refCam);
                const WarpOutput w = warpFrame(r.image, r.depth, refCam,
                                               tgtCam, &grid,
                                               scene.background);
                std::vector<std::uint32_t> needRender;
                std::uint64_t voidHoles = 0;
                for (int y = 0; y < res; ++y)
                    for (int x = 0; x < res; ++x) {
                        if (std::isfinite(w.depth.at(x, y)))
                            continue;
                        if (test::referenceRayHitsOccupied(
                                grid, tgtCam.generateRay(x, y))) {
                            needRender.push_back(
                                static_cast<std::uint32_t>(y * res + x));
                        } else {
                            ++voidHoles;
                            EXPECT_EQ(w.image.at(x, y).x,
                                      scene.background.x);
                        }
                    }
                EXPECT_EQ(w.needRender, needRender)
                    << scene.name << " " << modelName(kind);
                EXPECT_EQ(w.stats.voidHoles, voidHoles)
                    << scene.name << " " << modelName(kind);
                EXPECT_EQ(w.stats.disoccluded, needRender.size());
                totalVoid += voidHoles;
                totalDisoccluded += needRender.size();
            }
        }
    }
    EXPECT_GT(totalVoid, 0u);
    EXPECT_GT(totalDisoccluded, 0u);
}

} // namespace
} // namespace cicero
