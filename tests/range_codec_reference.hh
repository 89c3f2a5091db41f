/**
 * @file
 * Legacy `.ctrace` codec-1 writer for compatibility tests: the
 * order-0 adaptive bit-tree range encoder (`RangeEncoder`,
 * `rangeCompress`) and the byte-at-a-time CRC32 that
 * src/memory/tracefile.cc used before codec 2 (static rANS) replaced
 * the encoder and slicing-by-8 replaced the CRC loop. The coder is
 * copied verbatim apart from living in a header; the library keeps only
 * its decoder, so existing codec-1 files stay readable.
 *
 * `rangeContainerFrom` rebuilds exactly the codec-1 container the old
 * writer produced for a stream, starting from the Varint container of
 * the same stream: the header differs only in the codec byte, the
 * stored payload size and the header CRC. `withStoredPayload` is the
 * same surgery for any payload, which the forged-payload tests use.
 */

#ifndef CICERO_TESTS_RANGE_CODEC_REFERENCE_HH
#define CICERO_TESTS_RANGE_CODEC_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "memory/tracefile.hh"

namespace cicero::test {

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven) — the per-section
// payload checksums and the header checksum of version-3 containers.
// ---------------------------------------------------------------------

struct Crc32Table
{
    std::uint32_t t[256];

    Crc32Table()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t n,
      std::uint32_t seed = 0)
{
    static const Crc32Table table;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table.t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------
// Order-0 adaptive binary range coder (carry-less, byte-renormalized —
// the classic LZMA-style coder). The model is a 255-node bit tree: one
// adaptive probability per (bit position, more-significant-bits)
// context of a byte.
// ---------------------------------------------------------------------

constexpr std::uint32_t kProbBits = 11;
constexpr std::uint16_t kProbInit = 1u << (kProbBits - 1);
constexpr std::uint32_t kTopValue = 1u << 24;
constexpr int kProbShift = 5;

struct ByteModel
{
    std::uint16_t probs[256];

    ByteModel()
    {
        for (auto &p : probs)
            p = kProbInit;
    }
};

class RangeEncoder
{
  public:
    explicit RangeEncoder(std::vector<std::uint8_t> &out) : _out(out) {}

    void
    encodeByte(ByteModel &model, std::uint8_t byte)
    {
        std::uint32_t ctx = 1;
        for (int bit = 7; bit >= 0; --bit) {
            std::uint32_t b = (byte >> bit) & 1;
            encodeBit(model.probs[ctx], b);
            ctx = (ctx << 1) | b;
        }
    }

    void
    flush()
    {
        for (int i = 0; i < 5; ++i)
            shiftLow();
    }

  private:
    void
    encodeBit(std::uint16_t &prob, std::uint32_t bit)
    {
        std::uint32_t bound = (_range >> kProbBits) * prob;
        if (bit == 0) {
            _range = bound;
            prob += (static_cast<std::uint16_t>(1u << kProbBits) - prob) >>
                    kProbShift;
        } else {
            _low += bound;
            _range -= bound;
            prob -= prob >> kProbShift;
        }
        while (_range < kTopValue) {
            _range <<= 8;
            shiftLow();
        }
    }

    void
    shiftLow()
    {
        if (static_cast<std::uint32_t>(_low) < 0xFF000000u ||
            static_cast<std::uint32_t>(_low >> 32) != 0) {
            std::uint8_t carry = static_cast<std::uint8_t>(_low >> 32);
            _out.push_back(static_cast<std::uint8_t>(_cache + carry));
            while (--_cacheSize)
                _out.push_back(static_cast<std::uint8_t>(0xFF + carry));
            _cache = static_cast<std::uint8_t>(_low >> 24);
        }
        ++_cacheSize;
        _low = (_low << 8) & 0xFFFFFFFFull;
    }

    std::vector<std::uint8_t> &_out;
    std::uint64_t _low = 0;
    std::uint32_t _range = 0xFFFFFFFFu;
    std::uint8_t _cache = 0;
    std::uint64_t _cacheSize = 1;
};

inline std::vector<std::uint8_t>
rangeCompress(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    out.reserve(in.size() / 2 + 16);
    ByteModel model;
    RangeEncoder enc(out);
    for (std::uint8_t b : in)
        enc.encodeByte(model, b);
    enc.flush();
    return out;
}

// ---------------------------------------------------------------------
// Container surgery
// ---------------------------------------------------------------------

/**
 * @p container (a version-3 container) with its stored payload
 * replaced by @p stored under codec byte @p codec: the stored-size
 * field and the header CRC are rewritten to match, everything else in
 * the header (the raw payload size included) is kept. The header ends
 * in `u64 stored  u64 raw  u32 crc`.
 */
inline std::vector<std::uint8_t>
withStoredPayload(const std::vector<std::uint8_t> &container,
                  TraceCodec codec, const std::vector<std::uint8_t> &stored)
{
    const std::size_t headerBytes =
        container.size() - TraceFileReader(container).payloadBytes();
    std::vector<std::uint8_t> out(container.begin(),
                                  container.begin() + headerBytes);
    out[6] = static_cast<std::uint8_t>(codec);
    const std::size_t storedPos = headerBytes - 4 - 16;
    for (int i = 0; i < 8; ++i)
        out[storedPos + i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(stored.size()) >> (8 * i));
    const std::uint32_t crc = crc32(out.data(), headerBytes - 4);
    for (int i = 0; i < 4; ++i)
        out[headerBytes - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    out.insert(out.end(), stored.begin(), stored.end());
    return out;
}

/**
 * The codec-1 (Range) container the old TraceFileWriter wrote for the
 * stream held by @p varintContainer (a version-3 TraceCodec::Varint
 * container, whose stored payload is the varint stage itself).
 */
inline std::vector<std::uint8_t>
rangeContainerFrom(const std::vector<std::uint8_t> &varintContainer)
{
    const std::size_t payloadBytes =
        TraceFileReader(varintContainer).payloadBytes();
    const std::vector<std::uint8_t> payload(
        varintContainer.end() - payloadBytes, varintContainer.end());
    return withStoredPayload(varintContainer, TraceCodec::Range,
                             rangeCompress(payload));
}

} // namespace cicero::test

#endif // CICERO_TESTS_RANGE_CODEC_REFERENCE_HH
