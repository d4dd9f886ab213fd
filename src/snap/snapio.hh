/**
 * @file
 * Binary snapshot encoding: a versioned, checksummed envelope around a
 * stream of explicitly-encoded fields.
 *
 * The format is deliberately dumb. Every field is written in a fixed
 * little-endian width by hand -- never by memcpy of a struct -- so the
 * byte stream contains no padding, no host endianness and no libc
 * container internals, and two runs that reach the same simulator
 * state produce bit-identical images. Section boundaries carry string
 * tags so a reader that drifts out of phase with the writer fails on
 * the next tag instead of silently misinterpreting payload.
 *
 * SnapReader treats the image as untrusted input: the envelope
 * (magic, version, payload length, FNV-1a checksum) is validated
 * before any payload byte is interpreted, every read is bounds
 * checked, counts are sanity checked against the bytes remaining
 * before any allocation, and every violation is a SASOS_FATAL with a
 * message naming what was wrong -- truncation, corruption or hostile
 * length fields end the process (or reach the installed fatal
 * handler), never undefined behaviour.
 */

#ifndef SASOS_SNAP_SNAPIO_HH
#define SASOS_SNAP_SNAPIO_HH

#include <bit>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sasos::snap
{

/** First eight bytes of every snapshot image. */
constexpr char kMagic[8] = {'S', 'A', 'S', 'O', 'S', 'N', 'A', 'P'};

/** Current format version; bumped on any incompatible change.
 * v2: frame refcounts in the allocator image, CoW page set in the
 * kernel image, shared frames allowed in the page table.
 * v3: protection-key model (key tables, key-permission register file)
 * and the kprRefill/keyAssign cost constants in config signatures.
 * v4: the frame allocator's O(live) form (high-water mark, refcounts
 * below it, freed stack) instead of a bitmap and the verbatim free
 * list; the farm's Assign/Resume orders carry the chaos exit point. */
constexpr u32 kFormatVersion = 4;

/** Oldest version this build still reads. Readers of a section whose
 * layout changed since then branch on SnapReader::version(). */
constexpr u32 kMinFormatVersion = 3;

/** Envelope size: magic[8] version[4] reserved[4] length[8] fnv[8]. */
constexpr std::size_t kHeaderBytes = 32;

/** Refuse images larger than this (hostile length-field backstop). */
constexpr u64 kMaxImageBytes = u64{1} << 30;

/** Marker byte preceding every section tag. */
constexpr u8 kTagMarker = 0xA5;

/** FNV-1a 64-bit hash of a byte range. */
inline u64
fnv1a(const u8 *data, std::size_t size)
{
    u64 hash = 14695981039346656037ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * Non-fatal envelope validation, for images that arrive over an
 * untrusted transport (the sweep farm's worker pipes) and must be
 * rejected *without* ending the receiving process: a coordinator
 * preflights every checkpoint image before accepting it as a resume
 * point and again before handing it to another worker. Returns an
 * empty string when the envelope is well-formed, else a description
 * of the first violation. Mirrors the SnapReader constructor's
 * checks exactly; payload sections are still validated by the
 * restore-side cross-checks.
 */
inline std::string
preflightEnvelope(const std::vector<u8> &image)
{
    const auto readLe32 = [](const u8 *in) {
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(in[i]) << (8 * i);
        return v;
    };
    const auto readLe64 = [](const u8 *in) {
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(in[i]) << (8 * i);
        return v;
    };
    if (image.size() > kMaxImageBytes)
        return "image larger than the maximum";
    if (image.size() < kHeaderBytes)
        return "image smaller than the header";
    if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
        return "bad magic";
    const u32 version = readLe32(image.data() + 8);
    if (version < kMinFormatVersion || version > kFormatVersion)
        return "unsupported format version";
    if (readLe32(image.data() + 12) != 0)
        return "nonzero reserved header field";
    if (readLe64(image.data() + 16) != image.size() - kHeaderBytes)
        return "length field does not match the payload";
    if (readLe64(image.data() + 24) !=
        fnv1a(image.data() + kHeaderBytes, image.size() - kHeaderBytes))
        return "checksum mismatch";
    return {};
}

/** Appends explicitly-encoded fields to a payload buffer; seal()
 * wraps it in the checksummed envelope. */
class SnapWriter
{
  public:
    void
    put8(u8 v)
    {
        payload_.push_back(v);
    }

    void
    put16(u16 v)
    {
        put8(static_cast<u8>(v));
        put8(static_cast<u8>(v >> 8));
    }

    void
    put32(u32 v)
    {
        put16(static_cast<u16>(v));
        put16(static_cast<u16>(v >> 16));
    }

    void
    put64(u64 v)
    {
        put32(static_cast<u32>(v));
        put32(static_cast<u32>(v >> 32));
    }

    void
    putBool(bool v)
    {
        put8(v ? 1 : 0);
    }

    void
    putDouble(double v)
    {
        put64(std::bit_cast<u64>(v));
    }

    void
    putString(std::string_view s)
    {
        SASOS_ASSERT(s.size() <= 0xFFFFFFFFu, "string too long");
        put32(static_cast<u32>(s.size()));
        payload_.insert(payload_.end(), s.begin(), s.end());
    }

    /** Section boundary: marker byte + name, checked by expectTag. */
    void
    putTag(std::string_view name)
    {
        put8(kTagMarker);
        putString(name);
    }

    std::size_t
    bytes() const
    {
        return payload_.size();
    }

    /** Wrap the payload in the envelope and return the full image. */
    std::vector<u8>
    seal() const
    {
        std::vector<u8> image(kHeaderBytes + payload_.size());
        std::memcpy(image.data(), kMagic, sizeof(kMagic));
        const u32 version = kFormatVersion;
        const u32 reserved = 0;
        const u64 length = payload_.size();
        const u64 checksum = fnv1a(payload_.data(), payload_.size());
        writeLe32(image.data() + 8, version);
        writeLe32(image.data() + 12, reserved);
        writeLe64(image.data() + 16, length);
        writeLe64(image.data() + 24, checksum);
        if (!payload_.empty())
            std::memcpy(image.data() + kHeaderBytes, payload_.data(),
                        payload_.size());
        return image;
    }

  private:
    static void
    writeLe32(u8 *out, u32 v)
    {
        for (int i = 0; i < 4; ++i)
            out[i] = static_cast<u8>(v >> (8 * i));
    }

    static void
    writeLe64(u8 *out, u64 v)
    {
        for (int i = 0; i < 8; ++i)
            out[i] = static_cast<u8>(v >> (8 * i));
    }

    std::vector<u8> payload_;
};

/** Sequential, bounds-checked reader over an untrusted image. The
 * constructor validates the whole envelope; every malformed input is
 * a SASOS_FATAL, never undefined behaviour. */
class SnapReader
{
  public:
    explicit SnapReader(std::vector<u8> image) : image_(std::move(image))
    {
        if (image_.size() > kMaxImageBytes)
            SASOS_FATAL("snapshot larger than ", kMaxImageBytes, " bytes");
        if (image_.size() < kHeaderBytes)
            SASOS_FATAL("snapshot truncated: ", image_.size(),
                        " bytes is smaller than the ", kHeaderBytes,
                        "-byte header");
        if (std::memcmp(image_.data(), kMagic, sizeof(kMagic)) != 0)
            SASOS_FATAL("not a snapshot: bad magic");
        version_ = readLe32(image_.data() + 8);
        if (version_ < kMinFormatVersion || version_ > kFormatVersion)
            SASOS_FATAL("unsupported snapshot version ", version_,
                        " (this build reads versions ", kMinFormatVersion,
                        " to ", kFormatVersion, ")");
        if (readLe32(image_.data() + 12) != 0)
            SASOS_FATAL("corrupt snapshot: nonzero reserved header field");
        const u64 length = readLe64(image_.data() + 16);
        if (length != image_.size() - kHeaderBytes)
            SASOS_FATAL("corrupt snapshot: header claims ", length,
                        " payload bytes, file carries ",
                        image_.size() - kHeaderBytes);
        const u64 checksum = readLe64(image_.data() + 24);
        const u64 actual =
            fnv1a(image_.data() + kHeaderBytes, image_.size() - kHeaderBytes);
        if (checksum != actual)
            SASOS_FATAL("corrupt snapshot: checksum mismatch");
        pos_ = kHeaderBytes;
    }

    /** The image's format version (kMinFormatVersion..kFormatVersion). */
    u32 version() const { return version_; }

    u8
    get8()
    {
        need(1);
        return image_[pos_++];
    }

    u16
    get16()
    {
        const u16 lo = get8();
        const u16 hi = get8();
        return static_cast<u16>(lo | (hi << 8));
    }

    u32
    get32()
    {
        const u32 lo = get16();
        const u32 hi = get16();
        return lo | (hi << 16);
    }

    u64
    get64()
    {
        const u64 lo = get32();
        const u64 hi = get32();
        return lo | (hi << 32);
    }

    bool
    getBool()
    {
        const u8 v = get8();
        if (v > 1)
            SASOS_FATAL("corrupt snapshot: boolean field holds ",
                        static_cast<unsigned>(v));
        return v != 0;
    }

    double
    getDouble()
    {
        return std::bit_cast<double>(get64());
    }

    std::string
    getString()
    {
        const u32 size = get32();
        need(size);
        std::string s(reinterpret_cast<const char *>(image_.data() + pos_),
                      size);
        pos_ += size;
        return s;
    }

    /** Read a section tag and fail unless it is `name` -- the
     * reader's phase check against the writer. */
    void
    expectTag(std::string_view name)
    {
        if (get8() != kTagMarker)
            SASOS_FATAL("corrupt snapshot: expected section '", name,
                        "'");
        const std::string tag = getString();
        if (tag != name)
            SASOS_FATAL("corrupt snapshot: expected section '", name,
                        "', found '", tag, "'");
    }

    /**
     * Read an element count and reject it unless `count *
     * min_element_bytes` could still fit in the remaining payload --
     * so a hostile count cannot drive a huge allocation.
     */
    u64
    getCount(u64 min_element_bytes = 1)
    {
        const u64 count = get64();
        SASOS_ASSERT(min_element_bytes > 0, "zero element size");
        if (count > remaining() / min_element_bytes)
            SASOS_FATAL("corrupt snapshot: count ", count,
                        " exceeds the ", remaining(), " bytes remaining");
        return count;
    }

    std::size_t
    remaining() const
    {
        return image_.size() - pos_;
    }

    /** Final check: every payload byte must have been consumed. */
    void
    finish() const
    {
        if (pos_ != image_.size())
            SASOS_FATAL("corrupt snapshot: ", image_.size() - pos_,
                        " trailing payload bytes");
    }

  private:
    static u32
    readLe32(const u8 *in)
    {
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(in[i]) << (8 * i);
        return v;
    }

    static u64
    readLe64(const u8 *in)
    {
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(in[i]) << (8 * i);
        return v;
    }

    void
    need(std::size_t n)
    {
        if (n > remaining())
            SASOS_FATAL("snapshot truncated: need ", n, " bytes, ",
                        remaining(), " left");
    }

    std::vector<u8> image_;
    std::size_t pos_ = kHeaderBytes;
    u32 version_ = kFormatVersion;
};

} // namespace sasos::snap

#endif // SASOS_SNAP_SNAPIO_HH
