/**
 * @file
 * Checkpoint container implementation: file assembly/parsing, the
 * payload CRC and the two config-compatibility hashes.
 */

#include "ckpt/ckpt.hh"

#include <cstdio>
#include <cstring>

#ifdef EMC_HAVE_ZLIB
#include <zlib.h>
#endif

#include "sim/config.hh"

namespace emc::ckpt
{

const char *
levelName(Level l)
{
    switch (l) {
      case Level::kFull:
        return "full";
      case Level::kWarmup:
        return "warmup";
    }
    return "unknown";
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

namespace
{

/** Field-by-field config hashing (order defines the hash). */
class HashAcc
{
  public:
    void
    u(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (unsigned i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        h_ = fnv1a(b, 8, h_);
    }

    void
    s(const std::string &v)
    {
        u(v.size());
        h_ = fnv1a(reinterpret_cast<const std::uint8_t *>(v.data()),
                   v.size(), h_);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

void
hashPred(HashAcc &a, const pred::PredConfig &p)
{
    a.u(static_cast<std::uint64_t>(p.kind));
    a.u(p.table_entries);
    a.u(p.table_threshold);
    a.u(p.perc_entries);
    a.u(static_cast<std::uint64_t>(p.perc_weight_min));
    a.u(static_cast<std::uint64_t>(p.perc_weight_max));
    a.u(static_cast<std::uint64_t>(p.perc_activation));
    a.u(static_cast<std::uint64_t>(p.perc_training_threshold));
    a.u(p.history_len);
}

void
hashCore(HashAcc &a, const CoreConfig &c)
{
    a.u(c.fetch_width);
    a.u(c.issue_width);
    a.u(c.retire_width);
    a.u(c.rob_size);
    a.u(c.rs_size);
    a.u(c.lq_size);
    a.u(c.sq_size);
    a.u(c.phys_regs);
    a.u(c.l1d_bytes);
    a.u(c.l1d_ways);
    a.u(c.l1d_latency);
    a.u(c.l1_mshrs);
    a.u(c.mispredict_penalty);
    a.u(c.tlb_walk_latency);
    a.u(c.tlb_entries);
    a.u(c.use_branch_predictor);
    a.u(c.runahead_enabled);
    a.u(c.runahead_max_uops);
    a.u(c.emc_enabled);
    a.u(c.hermes_enabled);
    hashPred(a, c.hermes_pred);
    a.u(c.chain_max_uops);
    a.u(c.chain_max_indirection);
}

void
hashDram(HashAcc &a, const DramGeometry &g, const DramTiming &t)
{
    a.u(g.channels);
    a.u(g.ranks_per_channel);
    a.u(g.banks_per_rank);
    a.u(g.row_bytes);
    a.u(t.tCL);
    a.u(t.tRCD);
    a.u(t.tRP);
    a.u(t.tRAS);
    a.u(t.tBurst);
    a.u(t.tCCD);
    a.u(t.tWR);
    a.u(t.tWTR);
    a.u(t.tRTP);
    a.u(t.tRRD);
    a.u(t.tFAW);
    a.u(t.tREFI);
    a.u(t.tRFC);
}

void
hashEmc(HashAcc &a, const EmcConfig &e)
{
    a.u(e.contexts);
    a.u(e.issue_width);
    a.u(e.rs_entries);
    a.u(e.lsq_entries);
    a.u(e.dcache_bytes);
    a.u(e.dcache_ways);
    a.u(e.dcache_latency);
    a.u(e.tlb_entries);
    a.u(e.direct_dram);
    hashPred(a, e.pred);
}

} // namespace

std::uint64_t
fullConfigHash(const SystemConfig &cfg,
               const std::vector<std::string> &benchmarks)
{
    HashAcc a;
    a.u(cfg.num_cores);
    a.u(cfg.num_mcs);
    hashCore(a, cfg.core);
    a.u(cfg.llc_slice_bytes);
    a.u(cfg.llc_ways);
    a.u(cfg.llc_latency);
    hashDram(a, cfg.dram, cfg.timing);
    a.u(static_cast<std::uint64_t>(cfg.sched));
    a.u(cfg.mc_queue_entries);
    a.u(static_cast<std::uint64_t>(cfg.prefetch));
    a.u(cfg.emc_enabled);
    hashEmc(a, cfg.emc);
    a.u(cfg.target_uops);
    a.u(cfg.warmup_uops);
    a.u(cfg.seed);
    a.u(cfg.max_cycles);
    a.u(cfg.ideal_dependent_hits);
    a.u(cfg.record_emc_miss_lines);
    a.u(cfg.record_prefetch_lines);
    a.u(cfg.trace_files.size());
    for (const auto &f : cfg.trace_files)
        a.s(f);
    a.u(benchmarks.size());
    for (const auto &b : benchmarks)
        a.s(b);
    return a.value();
}

std::uint64_t
warmupConfigHash(const SystemConfig &cfg,
                 const std::vector<std::string> &benchmarks)
{
    HashAcc a;
    a.u(cfg.num_cores);
    a.u(cfg.llc_slice_bytes);
    a.u(cfg.llc_ways);
    a.u(cfg.core.l1d_bytes);
    a.u(cfg.core.l1d_ways);
    a.u(cfg.core.tlb_entries);
    a.u(cfg.core.use_branch_predictor);
    a.u(cfg.seed);
    a.u(cfg.trace_files.size());
    for (const auto &f : cfg.trace_files)
        a.s(f);
    a.u(benchmarks.size());
    for (const auto &b : benchmarks)
        a.s(b);
    return a.value();
}

std::vector<std::uint8_t>
assemble(Header h, const std::vector<std::uint8_t> &payload)
{
    h.version = kVersion;
    h.payload_crc = fnv1a(payload.data(), payload.size());

    Ser har = Ar::saver();
    har.io(h);
    const std::vector<std::uint8_t> hb = har.takeBytes();

    std::vector<std::uint8_t> out;
    out.reserve(8 + 8 + hb.size() + payload.size());
    out.insert(out.end(), kMagic, kMagic + 8);
    const std::uint64_t hlen = hb.size();
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(hlen >> (8 * i)));
    out.insert(out.end(), hb.begin(), hb.end());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

Header
parseHeader(const std::vector<std::uint8_t> &file,
            std::size_t *payload_offset, bool skip_crc)
{
    if (file.size() < 16
        || std::memcmp(file.data(), kMagic, 8) != 0) {
        throw Error("not a checkpoint file (bad magic)");
    }
    std::uint64_t hlen = 0;
    for (unsigned i = 0; i < 8; ++i)
        hlen |= static_cast<std::uint64_t>(file[8 + i]) << (8 * i);
    if (16 + hlen > file.size())
        throw Error("checkpoint header truncated");

    Header h;
    {
        Deser har = Ar::loader(std::vector<std::uint8_t>(
            file.begin() + 16,
            file.begin() + 16 + static_cast<std::size_t>(hlen)));
        har.io(h);
    }
    if (h.version != kVersion) {
        throw Error("unsupported checkpoint version "
                    + std::to_string(h.version) + " (tool supports "
                    + std::to_string(kVersion) + ")");
    }
    const std::size_t poff = 16 + static_cast<std::size_t>(hlen);
    if (payload_offset != nullptr)
        *payload_offset = poff;
    if (!skip_crc) {
        const std::uint64_t crc =
            fnv1a(file.data() + poff, file.size() - poff);
        if (crc != h.payload_crc) {
            throw Error("checkpoint payload CRC mismatch (file "
                        "corrupt or truncated)");
        }
    }
    return h;
}

std::vector<std::uint8_t>
payloadOf(const std::vector<std::uint8_t> &file)
{
    std::size_t poff = 0;
    (void)parseHeader(file, &poff);
    return {file.begin() + static_cast<std::ptrdiff_t>(poff), file.end()};
}

bool
compressionAvailable()
{
#ifdef EMC_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

bool
isCompressedImage(const std::vector<std::uint8_t> &bytes)
{
    return bytes.size() >= 16
           && std::memcmp(bytes.data(), kZMagic, 8) == 0;
}

std::vector<std::uint8_t>
deflateBytes(const std::uint8_t *raw, std::size_t n)
{
#ifdef EMC_HAVE_ZLIB
    uLongf zlen = compressBound(static_cast<uLong>(n));
    std::vector<std::uint8_t> out(zlen);
    const int rc = compress2(out.data(), &zlen, raw,
                             static_cast<uLong>(n),
                             Z_DEFAULT_COMPRESSION);
    if (rc != Z_OK)
        throw Error("deflate failed");
    out.resize(zlen);
    return out;
#else
    (void)raw;
    (void)n;
    throw Error("compression unavailable: built without zlib");
#endif
}

std::vector<std::uint8_t>
inflateBytes(const std::uint8_t *z, std::size_t n, std::size_t raw_size)
{
#ifdef EMC_HAVE_ZLIB
    std::vector<std::uint8_t> raw(raw_size);
    uLongf got = static_cast<uLongf>(raw_size);
    const int rc = uncompress(raw.data(), &got, z,
                              static_cast<uLong>(n));
    if (rc != Z_OK || got != raw_size)
        throw Error("inflate failed (stream corrupt or truncated)");
    return raw;
#else
    (void)z;
    (void)n;
    (void)raw_size;
    throw Error("compressed data needs a zlib-enabled build");
#endif
}

std::vector<std::uint8_t>
compressImage(const std::vector<std::uint8_t> &raw)
{
    std::vector<std::uint8_t> z = deflateBytes(raw.data(), raw.size());
    std::vector<std::uint8_t> out(16 + z.size());
    std::memcpy(out.data(), kZMagic, 8);
    const std::uint64_t rawlen = raw.size();
    for (unsigned i = 0; i < 8; ++i)
        out[8 + i] = static_cast<std::uint8_t>(rawlen >> (8 * i));
    std::memcpy(out.data() + 16, z.data(), z.size());
    return out;
}

std::vector<std::uint8_t>
maybeDecompressImage(std::vector<std::uint8_t> bytes)
{
    if (!isCompressedImage(bytes))
        return bytes;
    std::uint64_t rawlen = 0;
    for (unsigned i = 0; i < 8; ++i)
        rawlen |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
    try {
        return inflateBytes(bytes.data() + 16, bytes.size() - 16,
                            rawlen);
    } catch (const Error &) {
        throw Error("inflate of compressed checkpoint failed (file "
                    "corrupt or truncated)");
    }
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes,
          bool compress)
{
    std::vector<std::uint8_t> zimg;
    const std::vector<std::uint8_t> &img =
        compress ? (zimg = compressImage(bytes)) : bytes;
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        throw Error("cannot open '" + tmp + "' for writing");
    const std::size_t wrote =
        img.empty() ? 0 : std::fwrite(img.data(), 1, img.size(), f);
    const bool ok = (wrote == img.size()) && (std::fclose(f) == 0);
    if (!ok) {
        std::remove(tmp.c_str());
        throw Error("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw Error("cannot rename '" + tmp + "' to '" + path + "'");
    }
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw Error("cannot open checkpoint '" + path + "'");
    std::vector<std::uint8_t> out;
    // Size the buffer once and read in a single pass; checkpoint
    // images run to several MB, so incremental vector growth over
    // small reads costs real restore time. Unseekable inputs (pipes)
    // fall back to chunked reads.
    long size = -1;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        size = std::ftell(f);
        if (std::fseek(f, 0, SEEK_SET) != 0)
            size = -1;
    }
    if (size > 0) {
        out.resize(static_cast<std::size_t>(size));
        const std::size_t got =
            std::fread(out.data(), 1, out.size(), f);
        out.resize(got);
    }
    std::uint8_t buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        throw Error("read error on checkpoint '" + path + "'");
    return maybeDecompressImage(std::move(out));
}

} // namespace emc::ckpt
