/**
 * @file
 * emcckpt — inspect checkpoint files without running the simulator.
 *
 *   emcckpt info FILE          header, level, hashes, section table,
 *                              per-core dirty pages/words of `workload`
 *   emcckpt verify FILE        full parse incl. payload CRC; exit 0/1
 *   emcckpt diff FILE FILE     compare headers and per-section bytes,
 *                              with chunk-level shared/unique deltas
 *                              (the store's dedup granularity)
 *   emcckpt store DIR put NAME FILE    add an image to a store
 *   emcckpt store DIR get NAME FILE    reassemble an image
 *   emcckpt store DIR ls               list stored images
 *   emcckpt store DIR stats            dedup accounting
 *   emcckpt store DIR gc               drop unreferenced chunks
 *
 * Operates on the container bytes alone (src/ckpt has no System
 * dependency), so it works on images from any build of the simulator
 * with the same format version.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hh"
#include "ckpt/store.hh"
#include "mem/functional_memory.hh"

namespace
{

using namespace emc::ckpt;

void
usage()
{
    std::fprintf(stderr,
                 "usage: emcckpt info FILE\n"
                 "       emcckpt verify FILE\n"
                 "       emcckpt diff FILE FILE\n"
                 "       emcckpt store DIR put NAME FILE\n"
                 "       emcckpt store DIR get NAME FILE\n"
                 "       emcckpt store DIR ls\n"
                 "       emcckpt store DIR stats\n"
                 "       emcckpt store DIR gc\n");
}

/** 64 KB chunk hashes of @p n bytes at @p p (the store granularity). */
std::set<std::pair<std::uint64_t, std::uint64_t>>
chunkSet(const std::uint8_t *p, std::uint64_t n)
{
    constexpr std::uint64_t kChunk = 1 << 16;
    std::set<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::uint64_t off = 0; off < n; off += kChunk) {
        const std::uint64_t len = std::min(kChunk, n - off);
        out.insert({fnv1a(p + off, len), len});
    }
    return out;
}

/** Bytes of [@p p, @p p + @p n) whose chunks also appear in @p ref. */
std::uint64_t
sharedBytes(
    const std::set<std::pair<std::uint64_t, std::uint64_t>> &ref,
    const std::uint8_t *p, std::uint64_t n)
{
    constexpr std::uint64_t kChunk = 1 << 16;
    std::uint64_t shared = 0;
    for (std::uint64_t off = 0; off < n; off += kChunk) {
        const std::uint64_t len = std::min(kChunk, n - off);
        if (ref.count({fnv1a(p + off, len), len}))
            shared += len;
    }
    return shared;
}

void
printHeader(const std::string &path, const Header &h,
            std::size_t file_bytes, std::size_t payload_bytes)
{
    std::printf("%s:\n", path.c_str());
    std::printf("  version:     %u\n", h.version);
    std::printf("  level:       %s\n", levelName(h.level));
    std::printf("  config hash: %016llx\n",
                static_cast<unsigned long long>(h.config_hash));
    std::printf("  payload crc: %016llx\n",
                static_cast<unsigned long long>(h.payload_crc));
    std::printf("  size:        %zu bytes (%zu payload)\n", file_bytes,
                payload_bytes);
    std::printf("  %-10s %12s %12s\n", "section", "offset", "bytes");
    for (const Section &s : h.sections) {
        std::printf("  %-10s %12llu %12llu\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.offset),
                    static_cast<unsigned long long>(s.length));
    }
}

/**
 * Per-core dirty-page and dirty-word counts of the `workload` section
 * (layout in ckpt.hh), so the section's size explains itself.
 */
void
printWorkload(const std::uint8_t *payload, const Section &s)
{
    Ar ar = Ar::loaderView(payload + s.offset, s.length);
    ar.marker("workload");
    std::uint64_t cores = 0;
    ar.io(cores);
    std::printf("  %-6s %-12s %20s %12s %12s\n", "core", "profile",
                "seed", "dirty pages", "dirty words");
    for (std::uint64_t i = 0; i < cores; ++i) {
        std::string profile;
        std::uint64_t seed = 0;
        emc::FunctionalMemory mem;
        ar.io(profile);
        ar.io(seed);
        ar.io(mem);
        std::printf("  %-6llu %-12s %20llu %12zu %12zu\n",
                    static_cast<unsigned long long>(i), profile.c_str(),
                    static_cast<unsigned long long>(seed),
                    mem.dirtyPages(), mem.dirtyWords());
    }
}

int
cmdInfo(const std::string &path)
{
    // Skip the CRC so info still prints the header of an image whose
    // payload is damaged; verify is the integrity check.
    const std::vector<std::uint8_t> file = readFile(path);
    std::size_t payload_at = 0;
    const Header h = parseHeader(file, &payload_at, true);
    printHeader(path, h, file.size(), file.size() - payload_at);
    for (const Section &s : h.sections) {
        if (s.name == "workload"
            && payload_at + s.offset + s.length <= file.size())
            printWorkload(file.data() + payload_at, s);
    }
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const std::vector<std::uint8_t> file = readFile(path);
    const Header h = parseHeader(file);
    std::size_t payload_at = 0;
    parseHeader(file, &payload_at, true);
    const std::size_t payload_bytes = file.size() - payload_at;
    // The TOC must tile the payload: contiguous, in order, no gaps.
    std::uint64_t expect = 0;
    for (const Section &s : h.sections) {
        if (s.offset != expect) {
            std::fprintf(stderr,
                         "%s: section %s at offset %llu, expected"
                         " %llu\n",
                         path.c_str(), s.name.c_str(),
                         static_cast<unsigned long long>(s.offset),
                         static_cast<unsigned long long>(expect));
            return 1;
        }
        expect = s.offset + s.length;
    }
    if (expect != payload_bytes) {
        std::fprintf(stderr,
                     "%s: sections cover %llu of %zu payload bytes\n",
                     path.c_str(),
                     static_cast<unsigned long long>(expect),
                     payload_bytes);
        return 1;
    }
    std::printf("%s: OK (version %u, %s level, %zu bytes, %zu"
                " sections)\n",
                path.c_str(), h.version, levelName(h.level),
                file.size(), h.sections.size());
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    const std::vector<std::uint8_t> fa = readFile(path_a);
    const std::vector<std::uint8_t> fb = readFile(path_b);
    std::size_t pa = 0, pb = 0;
    const Header ha = parseHeader(fa, &pa, true);
    const Header hb = parseHeader(fb, &pb, true);

    int diffs = 0;
    auto field = [&](const char *what, std::uint64_t a,
                     std::uint64_t b) {
        if (a == b)
            return;
        ++diffs;
        std::printf("%-12s %016llx vs %016llx\n", what,
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(b));
    };
    field("version", ha.version, hb.version);
    field("level", static_cast<std::uint64_t>(ha.level),
          static_cast<std::uint64_t>(hb.level));
    field("config hash", ha.config_hash, hb.config_hash);
    field("payload crc", ha.payload_crc, hb.payload_crc);

    // Per-section byte comparison so a divergence names the subsystem
    // (and the first differing byte) instead of just "files differ".
    for (const Section &sa : ha.sections) {
        const Section *sb = nullptr;
        for (const Section &s : hb.sections) {
            if (s.name == sa.name)
                sb = &s;
        }
        if (!sb) {
            ++diffs;
            std::printf("section %-8s only in %s\n", sa.name.c_str(),
                        path_a.c_str());
            continue;
        }
        const std::uint8_t *a = fa.data() + pa + sa.offset;
        const std::uint8_t *b = fb.data() + pb + sb->offset;
        if (sa.length != sb->length) {
            ++diffs;
            const std::uint64_t shared =
                sharedBytes(chunkSet(a, sa.length), b, sb->length);
            std::printf("section %-8s %llu vs %llu bytes "
                        "(%llu shared, %llu unique)\n",
                        sa.name.c_str(),
                        static_cast<unsigned long long>(sa.length),
                        static_cast<unsigned long long>(sb->length),
                        static_cast<unsigned long long>(shared),
                        static_cast<unsigned long long>(sb->length
                                                        - shared));
            continue;
        }
        for (std::uint64_t i = 0; i < sa.length; ++i) {
            if (a[i] != b[i]) {
                ++diffs;
                // Chunk-level delta at the store's dedup granularity:
                // how much of this section the store would still
                // share between the two images.
                const std::uint64_t shared = sharedBytes(
                    chunkSet(a, sa.length), b, sb->length);
                std::printf("section %-8s differs at payload byte"
                            " %llu (%llu of %llu bytes shared,"
                            " %llu unique)\n",
                            sa.name.c_str(),
                            static_cast<unsigned long long>(
                                sa.offset + i),
                            static_cast<unsigned long long>(shared),
                            static_cast<unsigned long long>(
                                sa.length),
                            static_cast<unsigned long long>(
                                sa.length - shared));
                break;
            }
        }
    }
    for (const Section &sb : hb.sections) {
        bool found = false;
        for (const Section &s : ha.sections) {
            if (s.name == sb.name)
                found = true;
        }
        if (!found) {
            ++diffs;
            std::printf("section %-8s only in %s\n", sb.name.c_str(),
                        path_b.c_str());
        }
    }
    if (diffs == 0) {
        std::printf("identical (%zu bytes)\n", fa.size());
        return 0;
    }

    // Whole-image delta at store granularity: what a content-addressed
    // store would pay to keep both images.
    const std::uint64_t shared = sharedBytes(
        chunkSet(fa.data(), fa.size()), fb.data(), fb.size());
    std::printf("delta: %s shares %llu of %zu bytes with %s"
                " (%llu unique, %.1f%% dedup)\n",
                path_b.c_str(),
                static_cast<unsigned long long>(shared), fb.size(),
                path_a.c_str(),
                static_cast<unsigned long long>(fb.size() - shared),
                fb.empty() ? 0.0 : 100.0 * shared / fb.size());
    return 1;
}

int
cmdStore(int argc, char **argv)
{
    // argv: store DIR SUB [ARGS...]
    if (argc < 4) {
        usage();
        return 2;
    }
    const std::string dir = argv[2];
    const std::string sub = argv[3];
    emc::ckpt::Store store(dir);

    if (sub == "put" && argc == 6) {
        const StorePut p = store.put(argv[4], readFile(argv[5]));
        std::printf("%s: %llu bytes in %llu chunks, %llu new"
                    " (%llu bytes written), %llu reused"
                    " (%llu bytes deduplicated)\n",
                    argv[4],
                    static_cast<unsigned long long>(p.image_bytes),
                    static_cast<unsigned long long>(p.chunks),
                    static_cast<unsigned long long>(p.new_chunks),
                    static_cast<unsigned long long>(p.new_bytes),
                    static_cast<unsigned long long>(p.reused_chunks),
                    static_cast<unsigned long long>(p.reused_bytes));
        return 0;
    }
    if (sub == "get" && argc == 6) {
        writeFile(argv[5], store.get(argv[4]));
        std::printf("%s -> %s\n", argv[4], argv[5]);
        return 0;
    }
    if (sub == "ls" && argc == 4) {
        for (const std::string &n : store.names())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    if (sub == "stats" && argc == 4) {
        const StoreStats s = store.stats();
        std::printf("images:        %llu\n",
                    static_cast<unsigned long long>(s.manifests));
        std::printf("chunks:        %llu\n",
                    static_cast<unsigned long long>(s.objects));
        std::printf("logical bytes: %llu\n",
                    static_cast<unsigned long long>(s.logical_bytes));
        std::printf("stored bytes:  %llu (%llu objects + %llu"
                    " manifests)\n",
                    static_cast<unsigned long long>(s.storedBytes()),
                    static_cast<unsigned long long>(s.object_bytes),
                    static_cast<unsigned long long>(s.manifest_bytes));
        if (s.storedBytes() > 0) {
            std::printf("reduction:     %.2fx\n",
                        static_cast<double>(s.logical_bytes)
                            / static_cast<double>(s.storedBytes()));
        }
        return 0;
    }
    if (sub == "gc" && argc == 4) {
        std::printf("freed %llu bytes\n",
                    static_cast<unsigned long long>(store.gc()));
        return 0;
    }
    usage();
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "info" && argc == 3)
            return cmdInfo(argv[2]);
        if (cmd == "verify" && argc == 3)
            return cmdVerify(argv[2]);
        if (cmd == "diff" && argc == 4)
            return cmdDiff(argv[2], argv[3]);
        if (cmd == "store")
            return cmdStore(argc, argv);
    } catch (const Error &e) {
        std::fprintf(stderr, "emcckpt: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
