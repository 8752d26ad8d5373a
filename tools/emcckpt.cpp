/**
 * @file
 * emcckpt — inspect checkpoint files without running the simulator.
 *
 *   emcckpt info FILE          header, level, hashes, section table,
 *                              per-core dirty pages/words of `workload`
 *   emcckpt verify FILE        full parse incl. payload CRC; exit 0/1
 *   emcckpt diff FILE FILE     compare headers and per-section bytes,
 *                              naming each section's first differing
 *                              byte
 *
 * Operates on the container bytes alone (src/ckpt has no System
 * dependency), so it works on images from any build of the simulator
 * with the same format version.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
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
                 "       emcckpt diff FILE FILE\n");
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
            std::printf("section %-8s %llu vs %llu bytes\n",
                        sa.name.c_str(),
                        static_cast<unsigned long long>(sa.length),
                        static_cast<unsigned long long>(sb->length));
            continue;
        }
        for (std::uint64_t i = 0; i < sa.length; ++i) {
            if (a[i] != b[i]) {
                ++diffs;
                std::printf("section %-8s differs at payload byte"
                            " %llu\n",
                            sa.name.c_str(),
                            static_cast<unsigned long long>(
                                sa.offset + i));
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
    return 1;
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
    } catch (const Error &e) {
        std::fprintf(stderr, "emcckpt: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
