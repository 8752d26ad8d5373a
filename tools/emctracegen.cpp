/**
 * @file
 * emctracegen — record, inspect and verify v2 uop-trace containers
 * (DESIGN.md §11).
 *
 *   emctracegen record --profile bfs --out bfs.emct --uops 100000
 *   emctracegen info   FILE          header + provenance summary
 *   emctracegen verify FILE          full structural walk; nonzero
 *                                    exit and a byte offset on damage
 *   emctracegen cat    FILE          decoded records as text
 *
 * `record` runs the named benchmark profile's generator with the same
 * seed derivation emcsim uses, so a recorded trace replayed with
 * `emcsim --trace-in` reproduces the live run's statistics exactly.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "isa/uop.hh"
#include "trace/reader.hh"
#include "trace/record.hh"
#include "workload/profile.hh"

namespace
{

using namespace emc;

void
usage()
{
    std::printf(
        "emctracegen — uop-trace recording and inspection\n"
        "\n"
        "  emctracegen record --profile NAME --out FILE --uops N\n"
        "                     [--seed N] [--core N] [--meta STR]\n"
        "                     [--block-uops N] [--no-compress]\n"
        "        run NAME's generator (emcsim seed derivation: the\n"
        "        trace replays stat-identically via --trace-in)\n"
        "  emctracegen info FILE\n"
        "        print header fields and workload provenance\n"
        "  emctracegen verify FILE\n"
        "        decode every block, check every checksum; prints the\n"
        "        failing byte offset and exits nonzero on damage\n"
        "  emctracegen cat FILE [--limit N]\n"
        "        dump decoded records as text (default limit 32)\n"
        "\n"
        "profiles: the emcsim --list names plus the irregular-workload\n"
        "families (bfs, pagerank, hashjoin, btree, embed)\n");
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 0); // base 0: decimal, 0x hex, 0 octal
    return end && *end == '\0';
}

int
cmdRecord(int argc, char **argv)
{
    trace::RecordSpec spec;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        std::uint64_t v;
        if (a == "--profile") {
            spec.profile = need("--profile");
        } else if (a == "--out") {
            spec.path = need("--out");
        } else if (a == "--uops") {
            if (!parseU64(need("--uops"), spec.uops)) return 2;
        } else if (a == "--seed") {
            if (!parseU64(need("--seed"), spec.base_seed)) return 2;
        } else if (a == "--core") {
            if (!parseU64(need("--core"), v)) return 2;
            spec.core = static_cast<unsigned>(v);
        } else if (a == "--meta") {
            spec.meta = need("--meta");
        } else if (a == "--block-uops") {
            if (!parseU64(need("--block-uops"), v)) return 2;
            spec.block_uops = static_cast<std::uint32_t>(v);
        } else if (a == "--no-compress") {
            spec.compress = false;
        } else {
            std::fprintf(stderr, "unknown record flag %s\n", a.c_str());
            return 2;
        }
    }
    if (spec.profile.empty() || spec.path.empty() || spec.uops == 0) {
        std::fprintf(stderr,
                     "record needs --profile, --out and --uops\n");
        return 2;
    }
    const std::uint64_t n = trace::recordProfile(spec);
    std::printf("%s: recorded %" PRIu64 " uops of %s (seed %" PRIu64
                ", core %u)\n",
                spec.path.c_str(), n, spec.profile.c_str(),
                spec.base_seed, spec.core);
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const trace::Info info = trace::probeFile(path);
    std::printf("file        %s (%" PRIu64 " bytes)\n", path.c_str(),
                info.file_bytes);
    std::printf("version     %u\n", info.version);
    std::printf("uops        %" PRIu64 "\n", info.uop_count);
    std::printf("blocks      %" PRIu64 " (%u uops/block%s)\n",
                info.block_count, info.block_uops,
                (info.flags & trace::kFlagDeflate) ? ", deflate" : "");
    std::printf("finalized   %s\n", info.finalized() ? "yes" : "NO");
    std::printf("workload    %s\n", info.provenance.workload.c_str());
    if (!info.provenance.meta.empty())
        std::printf("meta        %s\n", info.provenance.meta.c_str());
    std::printf("seed        %" PRIu64 "\n", info.provenance.seed);
    std::printf("config_hash %016" PRIx64 "\n",
                info.provenance.config_hash);
    if (info.uop_count > 0) {
        std::printf("bytes/uop   %.2f (v1 would use 46.00)\n",
                    static_cast<double>(info.file_bytes)
                        / static_cast<double>(info.uop_count));
    }
    return 0;
}

int
cmdVerify(const std::string &path)
{
    const std::uint64_t n = trace::verifyFile(path);
    std::printf("%s: OK (%" PRIu64 " uops, every block checksummed"
                " and decoded)\n",
                path.c_str(), n);
    return 0;
}

int
cmdCat(const std::string &path, std::uint64_t limit)
{
    trace::Reader r(path);
    DynUop d;
    std::uint64_t i = 0;
    std::printf("%-10s %-8s %18s %4s %4s %4s %10s %18s %18s %s\n",
                "idx", "op", "pc", "dst", "src1", "src2", "imm",
                "vaddr", "result", "flags");
    while (i < limit && r.next(d)) {
        auto reg = [](std::uint8_t x) {
            return x == kNoReg ? std::string("-")
                               : std::to_string(unsigned(x));
        };
        std::printf("%-10" PRIu64 " %-8s %#18" PRIx64
                    " %4s %4s %4s %10" PRId64 " %#18" PRIx64
                    " %#18" PRIx64 "%s%s\n",
                    i, opcodeName(d.uop.op), d.uop.pc,
                    reg(d.uop.dst).c_str(), reg(d.uop.src1).c_str(),
                    reg(d.uop.src2).c_str(), d.uop.imm, d.vaddr,
                    d.result, d.taken ? " taken" : "",
                    d.mispredicted ? " misp" : "");
        ++i;
    }
    if (i == limit && r.size() > limit) {
        std::printf("... %" PRIu64 " more records (use --limit)\n",
                    r.size() - limit);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "--help" || cmd == "-h") {
            usage();
            return 0;
        }
        if (cmd == "record")
            return cmdRecord(argc - 2, argv + 2);
        if (cmd == "info" && argc == 3)
            return cmdInfo(argv[2]);
        if (cmd == "verify" && argc == 3)
            return cmdVerify(argv[2]);
        if (cmd == "cat" && (argc == 3 || argc == 5)) {
            std::uint64_t limit = 32;
            if (argc == 5) {
                if (std::strcmp(argv[3], "--limit") != 0
                    || !parseU64(argv[4], limit))
                    return 2;
            }
            return cmdCat(argv[2], limit);
        }
    } catch (const emc::trace::Error &e) {
        std::fprintf(stderr, "trace error: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
