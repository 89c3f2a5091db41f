#include "memory/tracefile.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/fault.hh"

namespace cicero {

namespace {

// ---------------------------------------------------------------------
// Event framing
//
// Each event starts with a tag byte. The low 2 bits are the event
// type; access events use two more bits to elide fields that repeat
// the previous event's value (the common case by far).
// ---------------------------------------------------------------------

constexpr std::uint8_t kEvAccess = 0;
constexpr std::uint8_t kEvRayEnd = 1;
constexpr std::uint8_t kEvFlush = 2;
constexpr std::uint8_t kEvEnd = 3; //!< stream terminator
constexpr std::uint8_t kFlagSameBytes = 1u << 2;
constexpr std::uint8_t kFlagSameRay = 1u << 3;

//! Version-3 checkpoint: the terminator type with bit 2 set, followed
//! by varint(cumulative event count) + varint(section CRC32). Old
//! writers never set high bits on non-access tags, so the encoding is
//! unambiguous across versions.
constexpr std::uint8_t kFlagCheckpoint = 1u << 2;
constexpr std::uint8_t kEvCheckpoint = kEvEnd | kFlagCheckpoint;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, slicing-by-8) — the per-section
// payload checksums and the header checksum of version-3 containers.
// t[0] is the classic byte-at-a-time table; t[k] advances a byte's
// contribution through k more zero bytes, so the main loop folds eight
// input bytes per step with eight independent lookups. Values are
// identical to the byte-at-a-time loop.
// ---------------------------------------------------------------------

struct Crc32Tables
{
    std::uint32_t t[8][256];

    Crc32Tables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (int k = 1; k < 8; ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
};

inline std::uint32_t
loadU32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t n,
      std::uint32_t seed = 0)
{
    static const Crc32Tables tables;
    const auto &t = tables.t;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; data += 8, n -= 8) {
        std::uint32_t lo = c ^ loadU32le(data);
        std::uint32_t hi = loadU32le(data + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n)
        c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

// ---------------------------------------------------------------------
// Codec 1: order-0 adaptive binary range coder (carry-less,
// byte-renormalized — the classic LZMA-style coder). The model is a
// 255-node bit tree: one adaptive probability per (bit position,
// more-significant-bits) context of a byte. Decode only: this build
// writes codec 2, and keeps the decoder so codec-1 files stay
// readable.
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

class RangeDecoder
{
  public:
    RangeDecoder(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
        for (int i = 0; i < 5; ++i)
            _code = (_code << 8) | nextByte();
    }

    std::uint8_t
    decodeByte(ByteModel &model)
    {
        std::uint32_t ctx = 1;
        for (int bit = 7; bit >= 0; --bit)
            ctx = (ctx << 1) | decodeBit(model.probs[ctx]);
        return static_cast<std::uint8_t>(ctx);
    }

  private:
    std::uint32_t
    decodeBit(std::uint16_t &prob)
    {
        std::uint32_t bound = (_range >> kProbBits) * prob;
        std::uint32_t bit;
        if (_code < bound) {
            _range = bound;
            prob += (static_cast<std::uint16_t>(1u << kProbBits) - prob) >>
                    kProbShift;
            bit = 0;
        } else {
            _code -= bound;
            _range -= bound;
            prob -= prob >> kProbShift;
            bit = 1;
        }
        while (_range < kTopValue) {
            _range <<= 8;
            _code = (_code << 8) | nextByte();
        }
        return bit;
    }

    /** Past-the-end reads pad with zero, as range decoders expect. */
    std::uint8_t
    nextByte()
    {
        return _pos < _size ? _data[_pos++] : 0;
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    std::uint32_t _code = 0;
    std::uint32_t _range = 0xFFFFFFFFu;
};

std::vector<std::uint8_t>
rangeDecompress(const std::uint8_t *data, std::size_t size,
                std::uint64_t rawBytes)
{
    std::vector<std::uint8_t> out;
    // Reserve only what the *stored* bytes make plausible; rawBytes is
    // attacker-controlled header data and must not size an allocation
    // on its own (the caller bounds the loop separately).
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(rawBytes, size * 16 + 4096)));
    ByteModel model;
    RangeDecoder dec(data, size);
    for (std::uint64_t i = 0; i < rawBytes; ++i)
        out.push_back(dec.decodeByte(model));
    return out;
}

// ---------------------------------------------------------------------
// Codec 2: static order-0 rANS (Duda, "Asymmetric Numeral Systems",
// arXiv:1311.2540) with byte renormalisation and four interleaved
// 32-bit states; symbol i of the varint stream uses state i % 4, so
// four independent decode chains overlap. One histogram pass fixes the
// frequency table, so decoding is a slot-table lookup, a multiply-add
// and at most two byte reads per symbol.
//
// State invariant: x in [kRansLow, kRansLow << 8). The encoder walks
// the input backward and writes its bytes backward, so the decoder
// reads the stored payload front to back.
// ---------------------------------------------------------------------

constexpr std::uint32_t kRansScaleBits = 12;
constexpr std::uint32_t kRansTotal = 1u << kRansScaleBits;
constexpr std::uint32_t kRansMask = kRansTotal - 1;
constexpr std::uint32_t kRansLow = 1u << 23;
constexpr std::size_t kRansStates = 4;

/**
 * Zero bytes appended to the decoder's copy of the stream: one round
 * of the four states reads at most 8 bytes, and decoding stops once
 * the reads pass 8 bytes beyond the real end.
 */
constexpr std::size_t kRansPad = 16;

/**
 * Normalise byte counts to frequencies summing to kRansTotal, keeping
 * every occurring symbol at >= 1. The rounding error goes to (or comes
 * from) the most frequent symbols, where it costs the fewest bits. An
 * empty input gets the one-symbol table {0: kRansTotal}.
 */
void
ransNormalize(const std::uint64_t (&count)[256], std::uint64_t total,
              std::uint32_t (&freq)[256])
{
    std::uint32_t sum = 0;
    int largest = 0;
    for (int s = 0; s < 256; ++s) {
        freq[s] = 0;
        if (count[s] == 0)
            continue;
        freq[s] = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(count[s] * kRansTotal / total));
        sum += freq[s];
        if (count[s] > count[largest])
            largest = s;
    }
    if (sum <= kRansTotal) {
        freq[largest] += kRansTotal - sum;
        return;
    }
    // Symbols lifted to 1 overshot the total: take the excess back one
    // unit at a time from the currently largest frequency.
    while (sum > kRansTotal) {
        int s = static_cast<int>(
            std::max_element(freq, freq + 256) - freq);
        --freq[s];
        --sum;
    }
}

/** Append the codec-2 frequency table (see the tracefile.hh layout). */
void
appendRansTable(std::vector<std::uint8_t> &out,
                const std::uint32_t (&freq)[256])
{
    for (int s = 0; s < 256; ++s) {
        appendVarint(out, freq[s]);
        if (freq[s] != 0)
            continue;
        int run = 0;
        while (s + 1 < 256 && freq[s + 1] == 0 && run < 255)
            ++s, ++run;
        out.push_back(static_cast<std::uint8_t>(run));
    }
}

std::vector<std::uint8_t>
ransCompress(const std::vector<std::uint8_t> &in)
{
    // Four histograms break the store-to-load chain of runs of equal
    // bytes.
    std::uint64_t hist[4][256] = {};
    const std::size_t n = in.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        ++hist[0][in[i]];
        ++hist[1][in[i + 1]];
        ++hist[2][in[i + 2]];
        ++hist[3][in[i + 3]];
    }
    for (; i < n; ++i)
        ++hist[0][in[i]];
    std::uint64_t count[256];
    for (int s = 0; s < 256; ++s)
        count[s] = hist[0][s] + hist[1][s] + hist[2][s] + hist[3][s];

    std::uint32_t freq[256];
    ransNormalize(count, n, freq);
    std::uint32_t start[256];
    for (std::uint32_t s = 0, c = 0; s < 256; c += freq[s++])
        start[s] = c;

    // At most two renormalisation bytes per symbol plus the final
    // states; the buffer is written back to front and left
    // uninitialised, so only the pages actually written are touched.
    const std::size_t cap = 2 * n + 4 * kRansStates;
    std::unique_ptr<std::uint8_t[]> buf(new std::uint8_t[cap]);
    std::uint8_t *const end = buf.get() + cap;
    std::uint8_t *p = end;
    std::uint32_t x[kRansStates] = {kRansLow, kRansLow, kRansLow, kRansLow};
    for (std::size_t k = n; k-- > 0;) {
        const std::uint32_t f = freq[in[k]];
        // Renormalise so the step below lands back in [kRansLow, 2^31).
        const std::uint32_t xMax = ((kRansLow >> kRansScaleBits) << 8) * f;
        std::uint32_t v = x[k % kRansStates];
        while (v >= xMax) {
            *--p = static_cast<std::uint8_t>(v);
            v >>= 8;
        }
        x[k % kRansStates] =
            ((v / f) << kRansScaleBits) + v % f + start[in[k]];
    }
    // The decoder reads states 0, 1, 2, 3 in order, each little-endian.
    for (std::size_t s = kRansStates; s-- > 0;) {
        p -= 4;
        for (int b = 0; b < 4; ++b)
            p[b] = static_cast<std::uint8_t>(x[s] >> (8 * b));
    }

    std::vector<std::uint8_t> out;
    out.reserve(static_cast<std::size_t>(end - p) + 640);
    appendRansTable(out, freq);
    out.insert(out.end(), p, end);
    return out;
}

/**
 * Parse a codec-2 frequency table from @p data into the decoder's slot
 * table, returning the table's length in bytes. Each slot packs
 * (freq - 1) << 20 | bias << 8 | symbol, where bias = slot - start, so
 * one 32-bit load drives a decode step.
 */
std::size_t
parseRansTable(const std::uint8_t *data, std::size_t size,
               std::vector<std::uint32_t> &slots)
{
    auto bad = [](const char *what) {
        return TraceFileError(std::string("corrupt trace payload: ") +
                              what);
    };
    std::uint32_t freq[256] = {};
    std::size_t pos = 0;
    std::uint32_t sum = 0;
    for (int s = 0; s < 256; ++s) {
        // Frequencies are at most kRansTotal: varints of <= 2 bytes.
        std::uint32_t f = 0;
        for (int shift = 0;; shift += 7) {
            if (pos >= size)
                throw bad("truncated rANS frequency table");
            if (shift > 7)
                throw bad("rANS frequency out of range");
            std::uint8_t b = data[pos++];
            f |= static_cast<std::uint32_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
        }
        if (f > kRansTotal)
            throw bad("rANS frequency out of range");
        freq[s] = f;
        sum += f;
        if (f == 0) {
            if (pos >= size)
                throw bad("truncated rANS frequency table");
            std::uint32_t run = data[pos++];
            if (run > static_cast<std::uint32_t>(255 - s))
                throw bad("rANS zero run past symbol 255");
            s += static_cast<int>(run);
        }
    }
    if (sum != kRansTotal)
        throw bad("rANS frequencies do not sum to 4096");

    slots.resize(kRansTotal);
    std::uint32_t start = 0;
    for (std::uint32_t s = 0; s < 256; ++s) {
        for (std::uint32_t j = 0; j < freq[s]; ++j)
            slots[start + j] = (freq[s] - 1) << 20 | j << 8 | s;
        start += freq[s];
    }
    return pos;
}

/**
 * Decode up to @p count symbols of a codec-2 payload. Past-the-end
 * reads pad with zero, so a truncated payload decodes its intact
 * prefix; once the reads run more than a few bytes past the end the
 * output is garbage and decoding stops (the checkpoint walk cuts the
 * rest). Renormalisation reads at most two bytes per symbol, which is
 * all a valid state ever needs, so a forged state (zero, say) on zero
 * padding cannot spin.
 *
 * @throws TraceFileError when the frequency table is malformed.
 */
std::vector<std::uint8_t>
ransDecompress(const std::uint8_t *data, std::size_t size,
               std::uint64_t count)
{
    std::vector<std::uint32_t> slots;
    const std::size_t tableBytes = parseRansTable(data, size, slots);

    // States + renormalisation bytes, zero-padded so the decode loop
    // needs one bounds test per round of the four states.
    std::vector<std::uint8_t> stream(data + tableBytes, data + size);
    const std::size_t streamBytes = stream.size();
    stream.resize(std::max(streamBytes, 4 * kRansStates) + kRansPad, 0);
    const std::uint8_t *p = stream.data();
    const std::uint8_t *const stop = stream.data() + stream.size() - 8;

    std::uint32_t x[kRansStates];
    for (std::uint32_t &state : x) {
        state = loadU32le(p);
        p += 4;
    }

    auto step = [&slots](std::uint32_t &state, const std::uint8_t *&in) {
        const std::uint32_t e = slots[state & kRansMask];
        std::uint32_t v = ((e >> 20) + 1) * (state >> kRansScaleBits) +
                          ((e >> 8) & kRansMask);
        // Bytes needed to climb back to kRansLow: 0, 1 or 2.
        const std::uint32_t need = (v < kRansLow) + (v < (kRansLow >> 8));
        const std::uint32_t next = static_cast<std::uint32_t>(in[0]) << 8 |
                                   in[1];
        state = (v << (8 * need)) | (next >> (8 * (2 - need)));
        in += need;
        return static_cast<std::uint8_t>(e);
    };

    // Size the output by what the stored bytes make plausible, not by
    // the header's claim; grow only if the stream really is that
    // compressible. Whole rounds fill [0, roundsEnd); the last
    // count % 4 symbols go to states 0.. in order.
    std::vector<std::uint8_t> out(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, size * std::uint64_t(16) + 4096)));
    const std::uint64_t roundsEnd = count - count % kRansStates;
    std::size_t i = 0;
    while (i < roundsEnd && p <= stop) {
        if (i + kRansStates > out.size())
            out.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
                count, std::max(2 * out.size(), i + kRansStates))));
        const std::size_t chunkEnd = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), roundsEnd) /
            kRansStates * kRansStates);
        std::uint8_t *o = out.data();
        for (; i < chunkEnd && p <= stop; i += kRansStates)
            for (std::size_t k = 0; k < kRansStates; ++k)
                o[i + k] = step(x[k], p);
    }
    if (i == roundsEnd && i < count) {
        out.resize(static_cast<std::size_t>(count));
        for (std::size_t k = 0; i < count && p <= stop; ++k)
            out[i++] = step(x[k], p);
    }
    out.resize(i);
    return out;
}

// ---------------------------------------------------------------------
// Container header serialization
// ---------------------------------------------------------------------

constexpr char kMagic[4] = {'C', 'T', 'R', 'C'};

void
appendU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendStr(std::vector<std::uint8_t> &out, const std::string &s)
{
    appendU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/** Bounds-checked cursor over a parsed container. */
struct Cursor
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    void
    need(std::size_t n) const
    {
        if (size - pos < n)
            throw TraceFileError("truncated trace file");
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(
            data[pos] | (data[pos + 1] << 8));
        pos += 2;
        return v;
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data[pos++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    std::string
    str()
    {
        std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }
};

std::uint64_t
readVarint(const std::vector<std::uint8_t> &events, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (pos >= events.size())
            throw TraceFileError(
                "corrupt trace payload: truncated varint");
        std::uint8_t b = events[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            throw TraceFileError(
                "corrupt trace payload: varint overflow");
    }
}

/**
 * Largest varint-stage payload the header's event counts can honestly
 * describe (worst-case encodings + checkpoint overhead), saturating.
 * Anything above it is a forged header — rejecting here bounds the
 * entropy-decoder loop, so a 40-byte fuzzed file cannot demand an
 * exabyte decompression.
 */
std::uint64_t
plausiblePayloadBytes(const TraceFileCounts &counts)
{
    auto satMul = [](std::uint64_t a, std::uint64_t b) {
        if (a != 0 && b > UINT64_MAX / a)
            return UINT64_MAX;
        return a * b;
    };
    auto satAdd = [](std::uint64_t a, std::uint64_t b) {
        return a > UINT64_MAX - b ? UINT64_MAX : a + b;
    };
    // Worst case per event: access = tag + 10B addr delta + 5B bytes +
    // 10B ray delta; rayEnd = tag + 10B delta; flush = tag.
    std::uint64_t bytes = satMul(counts.accesses, 26);
    bytes = satAdd(bytes, satMul(counts.rayEnds, 11));
    bytes = satAdd(bytes, counts.flushes);
    // Checkpoints: one per interval plus the final one, each at most
    // tag + 10B count + 5B crc; plus terminator and slack.
    std::uint64_t events = satAdd(
        satAdd(counts.accesses, counts.rayEnds), counts.flushes);
    bytes = satAdd(bytes,
                   satMul(events / kTraceCheckpointInterval + 2, 16));
    return satAdd(bytes, 64);
}

/** The codecs TraceFileWriter can produce; rejects the rest. */
TraceCodec
writableCodec(TraceCodec codec)
{
    if (codec != TraceCodec::Varint && codec != TraceCodec::Rans)
        throw std::invalid_argument(
            std::string("TraceFileWriter cannot write codec ") +
            traceCodecName(codec) + " (writable: varint, rans)");
    return codec;
}

} // namespace

const char *
traceCodecName(TraceCodec codec)
{
    switch (codec) {
      case TraceCodec::Varint:
        return "varint";
      case TraceCodec::Range:
        return "range";
      case TraceCodec::Rans:
        return "rans";
    }
    return "unknown";
}

const char *
traceStorageModeName(TraceStorageMode mode)
{
    switch (mode) {
      case TraceStorageMode::Fp32:
        return "fp32";
      case TraceStorageMode::Fp16:
        return "fp16";
      case TraceStorageMode::Unknown:
        break;
    }
    return "unknown";
}

bool
traceMetaStorageConsistent(const TraceFileMeta &meta)
{
    switch (meta.storageMode) {
      case TraceStorageMode::Fp16:
        // 2 B/channel accounting must decompose into whole channels.
        return meta.featureBytes % 2 == 0;
      case TraceStorageMode::Fp32:
        // The trace's featureBytes assumes fp16-class storage, but the
        // capture-time encoding held 4-byte floats.
        return false;
      case TraceStorageMode::Unknown:
        break;
    }
    return true; // legacy capture: nothing recorded, nothing to check
}

// ---------------------------------------------------------------------
// TraceFileWriter
// ---------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const TraceFileMeta &meta,
                                 TraceCodec codec)
    : _meta(meta), _codec(writableCodec(codec)), _path(path)
{
}

TraceFileWriter::TraceFileWriter(std::vector<std::uint8_t> &buffer,
                                 const TraceFileMeta &meta,
                                 TraceCodec codec)
    : _meta(meta), _codec(writableCodec(codec)), _memoryOut(&buffer)
{
    _memoryOut->clear();
}

TraceFileWriter::~TraceFileWriter()
{
    try {
        close();
    } catch (...) {
        // A destructor cannot report the failure; explicit close()
        // callers get the exception.
    }
}

void
TraceFileWriter::putVarint(std::uint64_t v)
{
    appendVarint(_payload, v);
}

void
TraceFileWriter::putSignedDelta(std::int64_t d)
{
    appendVarint(_payload, zigzag(d));
}

void
TraceFileWriter::noteEvent()
{
    ++_eventCount;
    if (++_eventsSinceCheckpoint >= kTraceCheckpointInterval)
        emitCheckpoint();
}

/**
 * Seal the payload section since the previous checkpoint under a CRC.
 * The checkpoint event itself starts the next section.
 */
void
TraceFileWriter::emitCheckpoint()
{
    std::uint32_t crc = crc32(_payload.data() + _checkpointStart,
                              _payload.size() - _checkpointStart);
    _payload.push_back(kEvCheckpoint);
    putVarint(_eventCount);
    putVarint(crc);
    _checkpointStart = _payload.size();
    _eventsSinceCheckpoint = 0;
}

void
TraceFileWriter::onAccess(const MemAccess &access)
{
    std::uint8_t tag = kEvAccess;
    bool sameBytes = _haveBytes && access.bytes == _lastBytes;
    bool sameRay = access.rayId == _lastRay;
    if (sameBytes)
        tag |= kFlagSameBytes;
    if (sameRay)
        tag |= kFlagSameRay;

    _payload.push_back(tag);
    putSignedDelta(static_cast<std::int64_t>(access.addr - _lastAddr));
    if (!sameBytes)
        putVarint(access.bytes);
    if (!sameRay)
        putSignedDelta(static_cast<std::int64_t>(access.rayId) -
                       static_cast<std::int64_t>(_lastRay));

    _lastAddr = access.addr;
    _lastBytes = access.bytes;
    _lastRay = access.rayId;
    _haveBytes = true;
    ++_counts.accesses;
    noteEvent();
}

void
TraceFileWriter::onRayEnd(std::uint32_t rayId)
{
    _payload.push_back(kEvRayEnd);
    putSignedDelta(static_cast<std::int64_t>(rayId) -
                   static_cast<std::int64_t>(_lastRay));
    _lastRay = rayId;
    ++_counts.rayEnds;
    noteEvent();
}

void
TraceFileWriter::onFlush()
{
    faultCheck(FaultSite::TraceFlush);
    _payload.push_back(kEvFlush);
    ++_counts.flushes;
    noteEvent();
}

void
TraceFileWriter::close()
{
    if (_closed)
        return;
    _closed = true;

    // Final checkpoint seals the tail section, so salvage can recover
    // every event of a file whose only damage is past the payload.
    emitCheckpoint();
    _payload.push_back(kEvEnd);

    std::vector<std::uint8_t> stored;
    const std::vector<std::uint8_t> *payload = &_payload;
    if (_codec == TraceCodec::Rans) {
        stored = ransCompress(_payload);
        payload = &stored;
    }
    _storedPayloadBytes = payload->size();

    std::vector<std::uint8_t> header;
    header.insert(header.end(), kMagic, kMagic + 4);
    appendU16(header, kTraceFileVersion);
    header.push_back(static_cast<std::uint8_t>(_codec));
    header.push_back(static_cast<std::uint8_t>(_meta.storageMode));
    appendStr(header, _meta.scene);
    appendStr(header, _meta.encoding);
    appendStr(header, _meta.model);
    appendU32(header, _meta.width);
    appendU32(header, _meta.height);
    appendU32(header, _meta.threads);
    appendU32(header, _meta.featureBytes);
    appendU64(header, _counts.accesses);
    appendU64(header, _counts.rayEnds);
    appendU64(header, _counts.flushes);
    header.push_back(_hasWorkload ? 1 : 0);
    if (_hasWorkload) {
        appendU64(header, _workload.rays);
        appendU64(header, _workload.samples);
        appendU64(header, _workload.indexOps);
        appendU64(header, _workload.vertexFetches);
        appendU64(header, _workload.gatherBytes);
        appendU64(header, _workload.interpOps);
        appendU64(header, _workload.mlpMacs);
        appendU64(header, _workload.compositeOps);
        appendU64(header, _workload.streamedBytes);
        appendU64(header, _workload.randomBytes);
        appendU64(header, _workload.ritEntries);
        appendU64(header, _workload.ritBytes);
        appendU32(header, _workload.vertexBytes);
    }
    appendU64(header, _storedPayloadBytes);
    appendU64(header, _payload.size());
    appendU32(header, crc32(header.data(), header.size()));

    _fileBytes = header.size() + payload->size();

    faultCheck(FaultSite::TraceWrite);

    if (_memoryOut) {
        *_memoryOut = header;
        _memoryOut->insert(_memoryOut->end(), payload->begin(),
                           payload->end());
    } else {
        // Temp file + atomic rename: the destination path either keeps
        // its previous content or gains a complete container. A crash
        // mid-write orphans only the .tmp.
        const std::string tmp = _path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            throw IoError("cannot open trace file for write", tmp,
                          errno);
        bool ok =
            std::fwrite(header.data(), 1, header.size(), f) ==
                header.size() &&
            (payload->empty() ||
             std::fwrite(payload->data(), 1, payload->size(), f) ==
                 payload->size());
        int writeErr = ok ? 0 : errno;
        ok = std::fclose(f) == 0 && ok;
        if (writeErr == 0 && !ok)
            writeErr = errno;
        if (!ok) {
            std::remove(tmp.c_str());
            throw IoError("short write on trace file", tmp, writeErr);
        }
        if (std::rename(tmp.c_str(), _path.c_str()) != 0) {
            int renameErr = errno;
            std::remove(tmp.c_str());
            throw IoError("cannot rename trace file into place", _path,
                          renameErr);
        }
    }

    _payload = std::vector<std::uint8_t>();
}

// ---------------------------------------------------------------------
// TraceFileReader
// ---------------------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string &path,
                                 TraceReadMode mode)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IoError("cannot open trace file", path, errno);
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    bool readError = std::ferror(f) != 0;
    int readErrno = errno;
    std::fclose(f);
    if (readError)
        throw IoError("read error on trace file", path, readErrno);
    parse(bytes.data(), bytes.size(), mode);
}

TraceFileReader::TraceFileReader(const std::uint8_t *data,
                                 std::size_t size, TraceReadMode mode)
{
    parse(data, size, mode);
}

TraceFileReader::TraceFileReader(const std::vector<std::uint8_t> &buffer,
                                 TraceReadMode mode)
{
    parse(buffer.data(), buffer.size(), mode);
}

void
TraceFileReader::parse(const std::uint8_t *data, std::size_t size,
                       TraceReadMode mode)
{
    faultCheck(FaultSite::TraceRead);

    Cursor c{data, size};

    c.need(4);
    if (std::memcmp(data, kMagic, 4) != 0)
        throw TraceFileError("not a trace file (bad magic)");
    c.pos = 4;

    std::uint16_t version = c.u16();
    if (version < kTraceFileMinVersion || version > kTraceFileVersion)
        throw TraceFileError(
            "unsupported trace-file version " + std::to_string(version) +
            " (this build reads versions " +
            std::to_string(kTraceFileMinVersion) + ".." +
            std::to_string(kTraceFileVersion) + ")");
    _version = version;

    std::uint8_t codec = c.u8();
    if (codec > static_cast<std::uint8_t>(TraceCodec::Rans))
        throw TraceFileError("unknown trace-file codec " +
                             std::to_string(codec));
    _codec = static_cast<TraceCodec>(codec);
    std::uint8_t storage = c.u8();
    _meta.storageMode =
        storage <= static_cast<std::uint8_t>(TraceStorageMode::Fp16)
            ? static_cast<TraceStorageMode>(storage)
            : TraceStorageMode::Unknown;

    _meta.scene = c.str();
    _meta.encoding = c.str();
    _meta.model = c.str();
    _meta.width = c.u32();
    _meta.height = c.u32();
    _meta.threads = c.u32();
    _meta.featureBytes = c.u32();
    _counts.accesses = c.u64();
    _counts.rayEnds = c.u64();
    _counts.flushes = c.u64();
    if (version >= 2) {
        _hasWorkload = c.u8() != 0;
        if (_hasWorkload) {
            _workload.rays = c.u64();
            _workload.samples = c.u64();
            _workload.indexOps = c.u64();
            _workload.vertexFetches = c.u64();
            _workload.gatherBytes = c.u64();
            _workload.interpOps = c.u64();
            _workload.mlpMacs = c.u64();
            _workload.compositeOps = c.u64();
            _workload.streamedBytes = c.u64();
            _workload.randomBytes = c.u64();
            _workload.ritEntries = c.u64();
            _workload.ritBytes = c.u64();
            _workload.vertexBytes = c.u32();
        }
    }
    _storedPayloadBytes = c.u64();
    std::uint64_t rawPayloadBytes = c.u64();

    if (version >= 3) {
        std::size_t crcPos = c.pos;
        std::uint32_t storedCrc = c.u32();
        // Header damage is unrecoverable in any mode: the counts,
        // codec and sizes below the CRC are what salvage itself
        // depends on.
        if (crc32(data, crcPos) != storedCrc)
            throw TraceFileError(
                "corrupt trace file: header checksum mismatch");
    }

    // A forged header must not size an allocation or a decode loop:
    // bound the claimed raw payload by what the event counts and the
    // stored bytes can honestly produce.
    if (rawPayloadBytes > plausiblePayloadBytes(_counts))
        throw TraceFileError(
            "corrupt trace file: implausible payload size");

    std::uint64_t availableBytes = size - c.pos;
    std::uint64_t storedUsed = _storedPayloadBytes;
    if (availableBytes < _storedPayloadBytes) {
        if (mode == TraceReadMode::Strict)
            throw TraceFileError("truncated trace file");
        storedUsed = availableBytes;
    }
    _fileBytes = c.pos + storedUsed;

    const std::uint8_t *stored = data + c.pos;
    const std::size_t storedSize = static_cast<std::size_t>(storedUsed);
    if (_codec == TraceCodec::Varint) {
        if (_storedPayloadBytes != rawPayloadBytes &&
            mode == TraceReadMode::Strict)
            throw TraceFileError(
                "corrupt trace file: payload size mismatch");
        _events.assign(stored, stored + storedSize);
    } else {
        if (rawPayloadBytes > _storedPayloadBytes * 4096 + 4096)
            throw TraceFileError(
                "corrupt trace file: implausible payload size");
        if (_codec == TraceCodec::Range) {
            _events = rangeDecompress(stored, storedSize, rawPayloadBytes);
        } else {
            // The same bound against the bytes actually present keeps
            // a salvage read of a cut file from decoding what the
            // header merely claims.
            try {
                _events = ransDecompress(
                    stored, storedSize,
                    std::min<std::uint64_t>(rawPayloadBytes,
                                            storedUsed * 4096 + 4096));
            } catch (const TraceFileError &) {
                // A damaged frequency table leaves nothing decodable:
                // salvage keeps the empty prefix.
                if (mode == TraceReadMode::Strict)
                    throw;
                _events.clear();
            }
        }
    }

    validatePayload(mode, rawPayloadBytes);
    // A cut payload is damage even when every event survives it (the
    // rANS stream can end in zero bytes that the padding restores).
    if (storedUsed < _storedPayloadBytes)
        _recovery.salvaged = true;
}

/**
 * Walk the decoded varint event stream end to end, checking framing,
 * checkpoint CRCs (version >= 3), and that the walked event counts
 * match the header. Strict mode throws on the first defect; Salvage
 * mode cuts the stream back to the last trustworthy prefix — the last
 * CRC-verified checkpoint for version >= 3, the last well-formed event
 * boundary for older files — re-terminates it, and recomputes the
 * counts from what was kept.
 */
void
TraceFileReader::validatePayload(TraceReadMode mode,
                                 std::uint64_t rawPayloadBytes)
{
    TraceFileCounts walked;
    std::uint64_t walkedEvents = 0;
    std::size_t pos = 0;
    std::size_t sectionStart = 0;

    // Salvage cut candidate: everything before it is trustworthy.
    std::size_t lastGood = 0;
    TraceFileCounts lastGoodCounts;
    std::uint64_t lastGoodEvents = 0;

    bool terminated = false;
    std::string defect;

    try {
        while (pos < _events.size()) {
            const std::size_t start = pos;
            std::uint8_t tag = _events[pos++];
            switch (tag & 3) {
              case kEvAccess:
                if (tag & ~(kFlagSameBytes | kFlagSameRay))
                    throw TraceFileError(
                        "corrupt trace payload: invalid event tag");
                readVarint(_events, pos); // address delta
                if (!(tag & kFlagSameBytes))
                    readVarint(_events, pos);
                if (!(tag & kFlagSameRay))
                    readVarint(_events, pos);
                ++walked.accesses;
                ++walkedEvents;
                break;
              case kEvRayEnd:
                if (tag != kEvRayEnd)
                    throw TraceFileError(
                        "corrupt trace payload: invalid event tag");
                readVarint(_events, pos);
                ++walked.rayEnds;
                ++walkedEvents;
                break;
              case kEvFlush:
                if (tag != kEvFlush)
                    throw TraceFileError(
                        "corrupt trace payload: invalid event tag");
                ++walked.flushes;
                ++walkedEvents;
                break;
              case kEvEnd:
                if (tag == kEvCheckpoint) {
                    std::uint64_t cumEvents = readVarint(_events, pos);
                    std::uint64_t crc = readVarint(_events, pos);
                    std::uint32_t computed =
                        crc32(_events.data() + sectionStart,
                              start - sectionStart);
                    if (crc > 0xFFFFFFFFull || cumEvents != walkedEvents ||
                        static_cast<std::uint32_t>(crc) != computed)
                        throw TraceFileError(
                            "corrupt trace payload: checkpoint "
                            "checksum mismatch");
                    sectionStart = pos;
                    lastGood = pos;
                    lastGoodCounts = walked;
                    lastGoodEvents = walkedEvents;
                    ++_recovery.checkpointsVerified;
                    break;
                }
                if (tag != kEvEnd)
                    throw TraceFileError(
                        "corrupt trace payload: invalid event tag");
                if (pos != _events.size())
                    throw TraceFileError(
                        "corrupt trace payload: trailing bytes after "
                        "terminator");
                terminated = true;
                break;
            }
            if (terminated)
                break;
            // Pre-checkpoint files have no CRC anchors; the best
            // trustworthy prefix is the last well-formed event.
            if (_version < 3)
                lastGood = pos, lastGoodCounts = walked,
                lastGoodEvents = walkedEvents;
        }
        if (!terminated)
            throw TraceFileError(
                "corrupt trace file: missing stream terminator");
        if (walked.accesses != _counts.accesses ||
            walked.rayEnds != _counts.rayEnds ||
            walked.flushes != _counts.flushes)
            throw TraceFileError(
                "corrupt trace file: header/payload event count "
                "mismatch");
    } catch (const TraceFileError &e) {
        if (mode == TraceReadMode::Strict)
            throw;
        defect = e.what();
    }

    if (!defect.empty()) {
        _recovery.salvaged = true;
        // Count against what the header promised: a cut payload or a
        // decoder that stopped early holds fewer bytes than were lost.
        _recovery.droppedPayloadBytes =
            std::max<std::uint64_t>(rawPayloadBytes, _events.size()) -
            lastGood;
        _events.resize(lastGood);
        _events.push_back(kEvEnd);
        _counts = lastGoodCounts;
        walkedEvents = lastGoodEvents;
    }
    _recovery.keptEvents = walkedEvents;
}

TraceEventBreakdown
TraceFileReader::eventBreakdown() const
{
    TraceEventBreakdown out;
    std::size_t pos = 0;
    for (;;) {
        if (pos >= _events.size())
            throw TraceFileError(
                "corrupt trace payload: unterminated event stream");
        const std::size_t start = pos;
        std::uint8_t tag = _events[pos++];
        switch (tag & 3) {
          case kEvAccess:
            readVarint(_events, pos); // address delta
            if (tag & kFlagSameBytes)
                ++out.sameBytesElisions;
            else
                readVarint(_events, pos);
            if (tag & kFlagSameRay)
                ++out.sameRayElisions;
            else
                readVarint(_events, pos);
            ++out.accessEvents;
            out.accessBytes += pos - start;
            break;
          case kEvRayEnd:
            readVarint(_events, pos);
            ++out.rayEndEvents;
            out.rayEndBytes += pos - start;
            break;
          case kEvFlush:
            ++out.flushEvents;
            out.flushBytes += pos - start;
            break;
          case kEvEnd:
            if (tag & kFlagCheckpoint) {
                readVarint(_events, pos); // cumulative event count
                readVarint(_events, pos); // section CRC
                ++out.checkpointEvents;
                out.checkpointBytes += pos - start;
                break;
            }
            out.terminatorBytes += pos - start;
            return out;
        }
    }
}

void
TraceFileReader::replay(TraceSink *sink) const
{
    std::size_t pos = 0;
    std::uint64_t lastAddr = 0;
    std::uint32_t lastBytes = 0;
    std::uint32_t lastRay = 0;

    for (;;) {
        if (pos >= _events.size())
            throw TraceFileError(
                "corrupt trace payload: unterminated event stream");
        std::uint8_t tag = _events[pos++];
        switch (tag & 3) {
          case kEvAccess: {
            MemAccess a;
            lastAddr += static_cast<std::uint64_t>(
                unzigzag(readVarint(_events, pos)));
            a.addr = lastAddr;
            if (tag & kFlagSameBytes) {
                a.bytes = lastBytes;
            } else {
                a.bytes = static_cast<std::uint32_t>(
                    readVarint(_events, pos));
                lastBytes = a.bytes;
            }
            if (tag & kFlagSameRay) {
                a.rayId = lastRay;
            } else {
                a.rayId = static_cast<std::uint32_t>(
                    static_cast<std::int64_t>(lastRay) +
                    unzigzag(readVarint(_events, pos)));
                lastRay = a.rayId;
            }
            sink->onAccess(a);
            break;
          }
          case kEvRayEnd: {
            lastRay = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(lastRay) +
                unzigzag(readVarint(_events, pos)));
            sink->onRayEnd(lastRay);
            break;
          }
          case kEvFlush:
            sink->onFlush();
            break;
          case kEvEnd:
            if (tag & kFlagCheckpoint) {
                // Checkpoints are integrity metadata, not sink events;
                // they were verified at parse time.
                readVarint(_events, pos);
                readVarint(_events, pos);
                break;
            }
            return;
        }
    }
}

} // namespace cicero
