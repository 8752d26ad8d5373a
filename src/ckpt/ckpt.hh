/**
 * @file
 * Checkpoint file container (DESIGN.md §7).
 *
 * Layout (all words 64-bit little-endian, via ckpt::Ar):
 *
 *   magic "EMCKPT1\n" (8 raw bytes)
 *   header length in bytes (u64)
 *   header: version, level, config hash, payload CRC, section TOC
 *   payload: the serialized System state; each section opens with an
 *            8-byte marker that load() re-validates
 *
 * The `workload` section (version 4) opens with the core count and,
 * per core, the profile name, the generator seed and the functional
 * memory's dirty words: the count of dirty pages, then per page (in
 * ascending order) its page number, its 512-bit dirty bitmap and one
 * value per set bit. Clean pages are not stored — restore rebuilds
 * them by constructing the same (profile, seed) workload. Page tables
 * and generator states follow.
 *
 * On-disk images may additionally be wrapped in a deflate container
 * (zlib builds only):
 *
 *   magic "EMCKPTZ\n" (8 raw bytes)
 *   raw image size in bytes (u64, little-endian)
 *   deflate stream of the EMCKPT1 image above
 *
 * readFile() inflates transparently, so every consumer (restore,
 * emcckpt, bench resume) reads both formats; compression is opt-in at
 * write time (writeFile(..., compress=true)).
 *
 * Two checkpoint levels:
 *
 *   kFull    complete machine state. Restore requires an identically
 *            configured System (enforced via the config hash) and
 *            continues the run exactly: stats at the end of a
 *            restored run are byte-identical to an uninterrupted one.
 *   kWarmup  warmed state only: functional memory, page tables,
 *            workload generators, per-core architectural registers,
 *            branch predictors, L1/TLB and LLC contents. Restorable
 *            into differing EMC/prefetcher/DRAM configurations, so
 *            sweeps warm once and fork N config points.
 *
 * tools/emcckpt operates on the header/TOC/payload bytes alone — this
 * library deliberately has no System dependency.
 */

#ifndef EMC_CKPT_CKPT_HH
#define EMC_CKPT_CKPT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serial.hh"

namespace emc
{
struct SystemConfig;
}

namespace emc::ckpt
{

constexpr std::uint32_t kVersion = 5;
constexpr char kMagic[8] = {'E', 'M', 'C', 'K', 'P', 'T', '1', '\n'};
/// Outer magic of a deflate-compressed image.
constexpr char kZMagic[8] = {'E', 'M', 'C', 'K', 'P', 'T', 'Z', '\n'};

/** Checkpoint completeness level (see file header). */
enum class Level : std::uint32_t
{
    kFull = 0,
    kWarmup = 1,
};

const char *levelName(Level l);

/** One named span of the payload (offsets relative to the payload). */
struct Section
{
    std::string name;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(name);
        ar.io(offset);
        ar.io(length);
    }
};

/** Parsed checkpoint header. */
struct Header
{
    std::uint32_t version = kVersion;
    Level level = Level::kFull;
    std::uint64_t config_hash = 0;
    std::uint64_t payload_crc = 0;
    std::vector<Section> sections;

    template <class A>
    void
    ser(A &ar)
    {
        ar.io(version);
        ar.io(level);
        ar.io(config_hash);
        ar.io(payload_crc);
        ar.io(sections);
    }
};

/** FNV-1a 64 over @p n bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t n,
                    std::uint64_t h = 14695981039346656037ULL);

/**
 * Hash of every simulation-affecting configuration field (obs-only
 * knobs — trace path/interval/buffer, capture prefix — excluded, as
 * are the dump-time-only energy parameters). Full-level restore
 * requires an exact match.
 */
std::uint64_t fullConfigHash(const SystemConfig &cfg,
                             const std::vector<std::string> &benchmarks);

/**
 * Hash of the minimal "fit" set a warmup-level restore needs to agree
 * on: core count, LLC/L1/TLB geometry, branch-predictor use, seed and
 * the benchmark names. Deliberately excludes EMC, prefetcher, DRAM
 * and chain-generation knobs so ablation sweeps can fork one warmup
 * snapshot across config points.
 */
std::uint64_t warmupConfigHash(const SystemConfig &cfg,
                               const std::vector<std::string> &benchmarks);

/** Assemble a complete file image (computes the payload CRC). */
std::vector<std::uint8_t> assemble(Header h,
                                   const std::vector<std::uint8_t> &payload);

/**
 * Parse and validate a file image: magic, version, and (unless
 * @p skip_crc) the payload CRC. @p payload_offset receives the byte
 * offset of the payload within @p file. Throws ckpt::Error.
 */
Header parseHeader(const std::vector<std::uint8_t> &file,
                   std::size_t *payload_offset = nullptr,
                   bool skip_crc = false);

/** Split a validated file image into its payload bytes. */
std::vector<std::uint8_t> payloadOf(const std::vector<std::uint8_t> &file);

/** True when this build can produce compressed images (zlib). */
bool compressionAvailable();

/**
 * Deflate @p raw into a bare zlib stream (no container framing —
 * callers that need self-description store the raw size themselves,
 * as the EMCKPTZ container and the src/trace block format do). Throws
 * ckpt::Error when the build lacks zlib (compressionAvailable()).
 */
std::vector<std::uint8_t>
deflateBytes(const std::uint8_t *raw, std::size_t n);

/**
 * Inflate a bare zlib stream produced by deflateBytes() back into
 * exactly @p raw_size bytes. Throws ckpt::Error on a corrupt stream,
 * a size mismatch, or a zlib-less build.
 */
std::vector<std::uint8_t>
inflateBytes(const std::uint8_t *z, std::size_t n, std::size_t raw_size);

/** True when @p bytes carries the compressed-image outer magic. */
bool isCompressedImage(const std::vector<std::uint8_t> &bytes);

/**
 * Wrap a raw EMCKPT1 image in the EMCKPTZ deflate container. Throws
 * ckpt::Error when the build lacks zlib (compressionAvailable()).
 */
std::vector<std::uint8_t>
compressImage(const std::vector<std::uint8_t> &raw);

/**
 * Inflate an EMCKPTZ container back to the raw image; bytes without
 * the EMCKPTZ magic pass through unchanged. Throws ckpt::Error on a
 * corrupt stream, or on any compressed image in a zlib-less build.
 */
std::vector<std::uint8_t>
maybeDecompressImage(std::vector<std::uint8_t> bytes);

/**
 * Atomic write: to "<path>.tmp", then rename over @p path. With
 * @p compress, the image is deflate-wrapped first (zlib builds only).
 */
void writeFile(const std::string &path,
               const std::vector<std::uint8_t> &bytes,
               bool compress = false);

/**
 * Read a whole file, transparently inflating compressed images.
 * Throws ckpt::Error on open/read failure.
 */
std::vector<std::uint8_t> readFile(const std::string &path);

} // namespace emc::ckpt

#endif // EMC_CKPT_CKPT_HH
