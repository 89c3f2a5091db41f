#include "nerf/decoder.hh"

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/fault.hh"
#include "common/simd.hh"

namespace cicero {

void
encodeBakedPoint(const BakedPoint &pt, float *feature)
{
    feature[0] = pt.sigma / kSigmaScale;
    feature[1] = pt.diffuse.x;
    feature[2] = pt.diffuse.y;
    feature[3] = pt.diffuse.z;
    feature[4] = pt.normal.x * 0.5f + 0.5f;
    feature[5] = pt.normal.y * 0.5f + 0.5f;
    feature[6] = pt.normal.z * 0.5f + 0.5f;
    feature[7] = pt.specular;
    feature[8] = pt.shininess / kShinScale;
}

BakedPoint
decodeBakedFeature(const float *feature)
{
    BakedPoint pt;
    pt.sigma = std::fmax(0.0f, feature[0]) * kSigmaScale;
    pt.diffuse = {clamp(feature[1], 0.0f, 1.0f),
                  clamp(feature[2], 0.0f, 1.0f),
                  clamp(feature[3], 0.0f, 1.0f)};
    Vec3 n{feature[4] * 2.0f - 1.0f, feature[5] * 2.0f - 1.0f,
           feature[6] * 2.0f - 1.0f};
    pt.normal = n.normalized();
    pt.specular = clamp(feature[7], 0.0f, 1.0f);
    pt.shininess = std::fmax(1.0f, feature[8] * kShinScale);
    return pt;
}

Decoder::Decoder(const Vec3 &lightDir, int hiddenWidth, int hiddenLayers,
                 std::uint64_t nominalMacs, float residualAmp,
                 std::uint64_t seed)
    : _lightDir(lightDir.normalized()),
      _mlp(
          [&] {
              std::vector<int> dims;
              dims.push_back(kFeatureDim + 3); // feature + view direction
              for (int l = 0; l < hiddenLayers; ++l)
                  dims.push_back(hiddenWidth);
              dims.push_back(4); // sigma residual (unused) + rgb residual
              return dims;
          }(),
          seed),
      _nominalMacs(nominalMacs ? nominalMacs : _mlp.macsPerInference()),
      _residualAmp(residualAmp)
{
}

DecodedSample
Decoder::decode(const float *feature, const Vec3 &viewDir) const
{
    BakedPoint pt = decodeBakedFeature(feature);

    DecodedSample out;
    out.sigma = pt.sigma;
    if (pt.sigma <= 0.0f)
        return out;

    out.rgb = shadePoint(pt, viewDir, _lightDir);

    // Residual from the executed (frozen, random) MLP: stands in for the
    // irreducible reconstruction error of a trained network.
    float in[kFeatureDim + 3];
    for (int i = 0; i < kFeatureDim; ++i)
        in[i] = feature[i];
    Vec3 v = viewDir.normalized();
    in[kFeatureDim + 0] = v.x;
    in[kFeatureDim + 1] = v.y;
    in[kFeatureDim + 2] = v.z;

    float res[4];
    _mlp.forward(in, res);
    out.rgb.x = clamp(out.rgb.x + _residualAmp * std::tanh(res[1]),
                      0.0f, 1.0f);
    out.rgb.y = clamp(out.rgb.y + _residualAmp * std::tanh(res[2]),
                      0.0f, 1.0f);
    out.rgb.z = clamp(out.rgb.z + _residualAmp * std::tanh(res[3]),
                      0.0f, 1.0f);
    return out;
}

void
Decoder::quantizeWeightsFp16()
{
    _mlp.quantizeWeightsFp16();
}

void
Decoder::decodeChunk(const float *features, std::size_t featureStride,
                     int count, const Vec3 &viewDir,
                     const Vec3 &viewNorm, DecodedSample *out) const
{
    // Fixed-capacity TLS scratch: sized once for kDecodeChunk items and
    // hard-checked against, never silently regrown — a chunked caller
    // that outgrew it would otherwise reallocate on every hot-loop call
    // (the fp16 weight path already pays a per-call widening pass; an
    // allocation on top would dwarf the kernel). The check is
    // unconditional, not an assert: release builds (-DNDEBUG) are the
    // only builds this project ships, and overflowing the scratch
    // would be silent heap corruption.
    if (count < 1 || count > kDecodeChunk)
        std::abort();
    constexpr int inDim = kFeatureDim + 3;
    thread_local std::vector<float> mlpIn(
        static_cast<std::size_t>(inDim) * kDecodeChunk);
    thread_local std::vector<float> mlpOut(
        static_cast<std::size_t>(4) * kDecodeChunk);

    // The gathered features are already channel-major: one contiguous
    // copy per channel (the old sample-major layout needed a full
    // strided transposition here), then the normalized view direction
    // broadcast into the last three channels.
    const std::size_t nC = static_cast<std::size_t>(count);
    for (int c = 0; c < kFeatureDim; ++c) {
        const float *src = features + static_cast<std::size_t>(c) *
                                          featureStride;
        float *dst = mlpIn.data() + static_cast<std::size_t>(c) * nC;
        for (int b = 0; b < count; ++b)
            dst[b] = src[b];
    }
    for (int b = 0; b < count; ++b) {
        mlpIn[(kFeatureDim + 0) * nC + b] = viewNorm.x;
        mlpIn[(kFeatureDim + 1) * nC + b] = viewNorm.y;
        mlpIn[(kFeatureDim + 2) * nC + b] = viewNorm.z;
    }

    // One blocked pass instead of count virtual-call round trips. The
    // residual of empty (sigma <= 0) samples is computed and discarded;
    // their decode below never reads it, matching the scalar path's
    // early return.
    _mlp.forwardBatch(mlpIn.data(), mlpOut.data(), count);

    float feature[kFeatureDim];
    for (int b = 0; b < count; ++b) {
        for (int c = 0; c < kFeatureDim; ++c)
            feature[c] =
                features[static_cast<std::size_t>(c) * featureStride + b];
        BakedPoint pt = decodeBakedFeature(feature);

        DecodedSample d;
        d.sigma = pt.sigma;
        if (pt.sigma > 0.0f) {
            d.rgb = shadePoint(pt, viewDir, _lightDir);
            d.rgb.x = clamp(d.rgb.x +
                                _residualAmp * std::tanh(mlpOut[1 * nC + b]),
                            0.0f, 1.0f);
            d.rgb.y = clamp(d.rgb.y +
                                _residualAmp * std::tanh(mlpOut[2 * nC + b]),
                            0.0f, 1.0f);
            d.rgb.z = clamp(d.rgb.z +
                                _residualAmp * std::tanh(mlpOut[3 * nC + b]),
                            0.0f, 1.0f);
        }
        out[b] = d;
    }
}

void
Decoder::decodeBatchSoA(const float *features, std::size_t featureStride,
                        int count, const Vec3 &viewDir,
                        DecodedSample *out) const
{
    faultCheck(FaultSite::MlpDecode);
    if (count <= 0)
        return;
    const Vec3 viewNorm = viewDir.normalized();
    for (int b0 = 0; b0 < count; b0 += kDecodeChunk)
        decodeChunk(features + b0, featureStride,
                    std::min(kDecodeChunk, count - b0), viewDir, viewNorm,
                    out + b0);
}

void
Decoder::decodeBatch(const float *features, int count,
                     const Vec3 &viewDir, DecodedSample *out) const
{
    if (count <= 0)
        return;

    // Sample-major entry point (streaming renderers scatter-accumulate
    // their feature buffers per sample): transpose chunk-wise into the
    // channel-major layout the core consumes. Results are bit-identical
    // to decodeBatchSoA — the layouts hold the same values.
    thread_local std::vector<float> soa(
        static_cast<std::size_t>(kFeatureDim) * kDecodeChunk);
    const Vec3 viewNorm = viewDir.normalized();
    for (int b0 = 0; b0 < count; b0 += kDecodeChunk) {
        const int bn = std::min(kDecodeChunk, count - b0);
        simd::transposeToChannelMajor(
            features + static_cast<std::size_t>(b0) * kFeatureDim, bn,
            kFeatureDim, soa.data());
        decodeChunk(soa.data(), static_cast<std::size_t>(bn), bn, viewDir,
                    viewNorm, out + b0);
    }
}

} // namespace cicero
