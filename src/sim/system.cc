#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>

#include "common/log.hh"
#include "prefetch/ghb.hh"
#include "emc/chain_codec.hh"
#include "pred/pickle.hh"
#include "prefetch/stream.hh"
#include "prefetch/stride.hh"
#include "trace/record.hh"

namespace emc
{

const char *
prefetchConfigName(PrefetchConfig p)
{
    switch (p) {
      case PrefetchConfig::kNone: return "none";
      case PrefetchConfig::kGhb: return "ghb";
      case PrefetchConfig::kStream: return "stream";
      case PrefetchConfig::kStride: return "stride";
      case PrefetchConfig::kPickle: return "pickle";
    }
    return "?";
}

void
SystemConfig::scaleToEightCores(bool dual_mc)
{
    num_cores = 8;
    num_mcs = dual_mc ? 2 : 1;
    dram.channels = 4;
    mc_queue_entries = 256;
    // Table 1: 8-core EMC has 4 contexts total (2 per EMC when dual).
    emc.contexts = dual_mc ? 2 : 4;
}

std::uint64_t
targetUopsFromEnv(std::uint64_t dflt)
{
    const char *env = std::getenv("EMC_SIM_UOPS");
    if (!env)
        return dflt;
    const long long v = std::atoll(env);
    return v > 0 ? static_cast<std::uint64_t>(v) : dflt;
}

/** Per-EMC port adapter: tags calls with the owning MC's index. */
struct EmcPortAdapter : EmcPort
{
    System *sys;
    unsigned mc;

    EmcPortAdapter(System *s, unsigned m) : sys(s), mc(m) {}

    bool
    emcDirectDram(CoreId core, Addr paddr_line,
                  std::uint64_t token) override
    {
        return sys->emcDirectDram(mc, core, paddr_line, token);
    }

    bool
    emcLlcQuery(CoreId core, Addr paddr_line, std::uint64_t token,
                Addr pc) override
    {
        return sys->emcLlcQuery(mc, core, paddr_line, token, pc);
    }

    void
    emcLsqPopulate(CoreId core, std::uint64_t rob_seq, Addr paddr,
                   std::uint64_t chain_id) override
    {
        sys->emcLsqPopulate(mc, core, rob_seq, paddr, chain_id);
    }

    void
    emcChainResult(const ChainResult &result, unsigned bytes) override
    {
        sys->emcChainResult(mc, result, bytes);
    }

    Cycle now() const override { return sys->now(); }
};

System::System(const SystemConfig &cfg,
               const std::vector<std::string> &benchmarks)
    : cfg_(cfg),
      control_ring_(cfg.num_cores + cfg.num_mcs, false),
      data_ring_(cfg.num_cores + cfg.num_mcs, true),
      benchmark_names_(benchmarks)
{
    emc_assert(benchmarks.size() == cfg.num_cores,
               "need one benchmark per core");
    emc_assert(cfg.num_mcs == 1 || cfg.num_mcs == 2,
               "1 or 2 memory controllers supported");
    emc_assert(cfg.dram.channels % cfg.num_mcs == 0,
               "channels must split evenly across MCs");

    // Programs, page tables, cores. A synthetic core's built memory
    // and generator are a pure function of (profile, generator seed):
    // the registry shares one sealed build per pair, so checkpoints
    // carry only the words written from here on (DESIGN.md §7).
    auto traced = [&](unsigned i) {
        return i < cfg.trace_files.size() && !cfg.trace_files[i].empty();
    };
    std::vector<WorkloadRegistry::Key> keys;
    for (unsigned i = 0; i < cfg.num_cores; ++i) {
        if (!traced(i))
            keys.emplace_back(benchmarks[i],
                              trace::generatorSeed(cfg.seed, i));
    }
    workloads_ = WorkloadRegistry::acquire(keys);
    CoreConfig core_cfg = cfg.core;
    core_cfg.emc_enabled = cfg.emc_enabled;
    for (unsigned i = 0, built = 0; i < cfg.num_cores; ++i) {
        page_tables_.push_back(
            std::make_unique<PageTable>(i, cfg.seed + i));
        std::unique_ptr<TraceSource> src;
        if (traced(i)) {
            // Replay a captured v2 trace (looping so long runs and
            // warmup never exhaust it).
            memories_.push_back(std::make_unique<FunctionalMemory>());
            src = std::make_unique<trace::Reader>(cfg.trace_files[i],
                                                  true);
        } else {
            const BuiltWorkload &w = *workloads_[built++];
            memories_.push_back(w.memory());
            src = w.program(*memories_.back());
        }
        if (!cfg.capture_prefix.empty()) {
            auto inner = std::move(src);
            trace::Provenance prov;
            prov.workload = benchmarks[i];
            prov.meta = "emcsim --capture";
            prov.config_hash =
                ckpt::fullConfigHash(cfg, benchmarks);
            prov.seed = cfg.seed;
            auto cap = std::make_unique<trace::Recorder>(
                inner.get(),
                cfg.capture_prefix + ".core" + std::to_string(i)
                    + ".emct",
                prov);
            capture_inner_.push_back(std::move(inner));
            capture_recorders_.push_back(cap.get());
            src = std::move(cap);
        }
        programs_.push_back(std::move(src));
        cores_.push_back(std::make_unique<Core>(
            i, core_cfg, programs_.back().get(),
            page_tables_.back().get(), this));
    }

    // LLC slices.
    for (unsigned i = 0; i < cfg.num_cores; ++i) {
        slices_.push_back(std::make_unique<Cache>(
            cfg.llc_slice_bytes, cfg.llc_ways, "llc_slice"));
        slice_next_free_.push_back(0);
    }

    // Memory controllers, channels, EMCs.
    const unsigned ch_per_mc = cfg.dram.channels / cfg.num_mcs;
    const std::size_t q_per_ch =
        std::max<std::size_t>(8, cfg.mc_queue_entries / cfg.dram.channels);
    channels_.resize(cfg.num_mcs);
    for (unsigned m = 0; m < cfg.num_mcs; ++m) {
        for (unsigned c = 0; c < ch_per_mc; ++c) {
            auto ch = std::make_unique<DramChannel>(
                cfg.dram, cfg.timing, cfg.sched, q_per_ch,
                cfg.num_cores);
            const unsigned mc_idx = m;
            ch->setCallback([this, mc_idx](const MemRequest &req) {
                handleDramDone(mc_idx, req);
            });
            channels_[m].push_back(std::move(ch));
        }
        if (cfg.emc_enabled) {
            emc_ports_.push_back(
                std::make_unique<EmcPortAdapter>(this, m));
            emcs_.push_back(std::make_unique<Emc>(
                cfg.emc, cfg.num_cores, emc_ports_.back().get()));
        }
    }

    // Prefetcher (at most one engine per System).
    switch (cfg.prefetch) {
      case PrefetchConfig::kNone:
        break;
      case PrefetchConfig::kGhb:
        prefetcher_ = std::make_unique<GhbPrefetcher>(cfg.num_cores, 1024);
        break;
      case PrefetchConfig::kStream:
        prefetcher_ =
            std::make_unique<StreamPrefetcher>(cfg.num_cores, 32, 32);
        break;
      case PrefetchConfig::kStride:
        prefetcher_ = std::make_unique<StridePrefetcher>(cfg.num_cores);
        break;
      case PrefetchConfig::kPickle:
        prefetcher_ = std::make_unique<pred::PicklePrefetcher>(cfg.num_cores);
        break;
    }

    // Ring delivery dispatch: translate message type to event handler.
    auto dispatch = [this](const RingMsg &msg) {
        switch (msg.type) {
          case MsgType::kMemRead:
            handleSliceArrive(msg.token);
            break;
          case MsgType::kLlcMissToMc:
          case MsgType::kControlMisc:
            handleMcEnqueue(msg.token);
            break;
          case MsgType::kFillToSlice:
            handleFillAtSlice(msg.token);
            break;
          case MsgType::kFillToCore:
            handleFillAtCore(msg.token);
            break;
          case MsgType::kWriteback:
            handleSliceStore(msg.token);
            break;
          case MsgType::kChainTransfer:
            handleChainArrive(msg.token);
            break;
          case MsgType::kLiveOut:
            handleChainResult(msg.token);
            break;
          case MsgType::kLsqPopulate:
            handleLsqPopulate(msg.token);
            break;
          case MsgType::kEmcLlcQuery:
            handleEmcQueryArrive(msg.token);
            break;
          case MsgType::kDataMisc:
            handleEmcQueryReply(msg.token);
            break;
          case MsgType::kEmcFillReply:
            handleEmcDirectReply(msg.token);
            break;
        }
    };
    control_ring_.setDeliver(dispatch);
    data_ring_.setDeliver(dispatch);

    finish_cycle_.assign(cfg.num_cores, kNoCycle);
    finish_snapshot_.resize(cfg.num_cores);
    snapshotted_.assign(cfg.num_cores, false);

    // Escape hatch for A/B timing comparisons: force cycle-by-cycle
    // ticking even across provably idle gaps.
    cycle_skip_enabled_ = std::getenv("EMC_NO_CYCLE_SKIP") == nullptr;

#ifdef EMC_SIM_CHECK
    enableInvariantChecks();
#endif

    if (!cfg.trace_path.empty()) {
        enableTracing(cfg.trace_path, cfg.trace_buffer_events,
                      cfg.trace_interval);
    }
}

System::~System()
{
    // Finalize any capture files a completed run() has not already
    // closed (close() is idempotent). Swallow I/O errors — destructors
    // must not throw; an unfinalizable file is left with its
    // index_offset 0 marker and readers reject it with a typed error.
    for (trace::Recorder *rec : capture_recorders_) {
        try {
            rec->finish();
        } catch (const trace::Error &e) {
            emc_warn(std::string("trace capture finalize failed: ")
                     + e.what());
        }
    }
}

// --------------------------------------------------------------------
// Runtime invariant checking (DESIGN.md §5d)
// --------------------------------------------------------------------

void
System::enableInvariantChecks()
{
    if (check_)
        return;
    check_ = std::make_unique<check::CheckRegistry>();
    check_->setClock([this] { return now_; });
    ck_events_ = static_cast<check::EventQueueChecker *>(
        &check_->add(std::make_unique<check::EventQueueChecker>()));
    ck_txns_ = static_cast<check::TxnLifecycleChecker *>(
        &check_->add(std::make_unique<check::TxnLifecycleChecker>()));
    ck_conserve_ = static_cast<check::ConservationChecker *>(
        &check_->add(std::make_unique<check::ConservationChecker>()));
    ck_retire_ = static_cast<check::RetireOrderChecker *>(
        &check_->add(std::make_unique<check::RetireOrderChecker>()));
    for (auto &c : cores_)
        c->setCheck(check_.get(), ck_retire_);
    for (auto &e : emcs_)
        e->setCheck(check_.get());
}

void
System::runPerTickChecks()
{
    // Cheap O(#rings + #channels) conservation equalities, every tick.
    ck_conserve_->check(*check_, "control_ring",
                        control_ring_.sentTotal()
                            - control_ring_.deliveredTotal(),
                        control_ring_.pending(), "messages in flight");
    ck_conserve_->check(*check_, "data_ring",
                        data_ring_.sentTotal()
                            - data_ring_.deliveredTotal(),
                        data_ring_.pending(), "messages in flight");
    for (std::size_t m = 0; m < channels_.size(); ++m) {
        for (std::size_t c = 0; c < channels_[m].size(); ++c) {
            const DramChannel &ch = *channels_[m][c];
            const std::string comp = "mc" + std::to_string(m)
                                     + ".ch" + std::to_string(c);
            ck_conserve_->check(*check_, comp,
                                ch.acceptedReads() - ch.completedReads(),
                                ch.readQueueDepth() + ch.inFlight(),
                                "read requests in flight");
            ck_conserve_->check(*check_, comp,
                                ch.acceptedWrites() - ch.issuedWrites(),
                                ch.writeQueueDepth(),
                                "buffered writes");
            if (ch.readQueueDepth() > ch.queueLimit()) {
                check_->fail("conservation", comp, 0,
                             "read queue exceeds its credit limit");
            }
        }
    }
    ck_txns_->checkLeaks(*check_, txns_.size());
    ck_events_->checkDrained(*check_, events_.size());

    if (now_ >= next_deep_check_) {
        runDeepChecks();
        next_deep_check_ = now_ + 2048;
    }
}

void
System::runDeepChecks()
{
    for (auto &c : cores_)
        c->selfCheck(*check_);
    for (auto &e : emcs_)
        e->selfCheck(*check_);
    for (std::size_t i = 0; i < slices_.size(); ++i) {
        slices_[i]->checkConsistent([&](const std::string &msg) {
            check_->fail("cache_state",
                         "slice" + std::to_string(i), 0, msg);
        });
    }
    for (std::size_t m = 0; m < channels_.size(); ++m) {
        for (std::size_t c = 0; c < channels_[m].size(); ++c) {
            channels_[m][c]->checkConsistent([&](const std::string &msg) {
                check_->fail("dram_state",
                             "mc" + std::to_string(m) + ".ch"
                                 + std::to_string(c),
                             0, msg);
            });
        }
    }
    // Every transaction merged onto an in-flight fill must still be
    // live in the pool, or its wakeup would be lost.
    // lint-ok: unordered-iter (order-insensitive invariant scan)
    for (const auto &kv : pending_fills_) {
        for (std::uint64_t id : kv.second) {
            if (!txns_.find(id)) {
                check_->fail("txn_lifecycle", "pending_fills", id,
                             "merged transaction no longer live in "
                             "the slab pool");
            }
        }
    }
}

void
System::finalizeChecks()
{
    runDeepChecks();
    ck_txns_->checkLeaks(*check_, txns_.size());
    ck_events_->checkDrained(*check_, events_.size());
    check_->finalizeAll();
}

// --------------------------------------------------------------------
// Observability (DESIGN.md §6)
// --------------------------------------------------------------------

void
System::enableTracing(const std::string &trace_path,
                      std::size_t buffer_events, Cycle stream_interval)
{
    if (tracer_)
        return;
#ifndef EMC_SIM_TRACE
    emc_warn("trace hooks compiled out (EMC_SIM_TRACE=OFF); the trace "
             "file will contain no events");
#endif
    obs::TraceTopology topo;
    topo.num_cores = cfg_.num_cores;
    topo.num_mcs = cfg_.num_mcs;
    topo.emc_contexts = cfg_.emc_enabled ? cfg_.emc.contexts : 0;
    topo.channels = cfg_.dram.channels;
    topo.ranks_per_channel = cfg_.dram.ranks_per_channel;
    topo.banks_per_rank = cfg_.dram.banks_per_rank;
    tracer_ = std::make_unique<obs::Tracer>(trace_path, topo,
                                            buffer_events);
    if (!tracer_->ok())
        emc_warn("cannot open trace file " + trace_path);

    for (auto &c : cores_)
        c->setTrace(tracer_.get());
    for (unsigned m = 0; m < emcs_.size(); ++m)
        emcs_[m]->setTrace(tracer_.get(), m);
    const unsigned ch_per_mc = cfg_.dram.channels / cfg_.num_mcs;
    const unsigned banks_per_ch =
        cfg_.dram.ranks_per_channel * cfg_.dram.banks_per_rank;
    for (unsigned m = 0; m < cfg_.num_mcs; ++m) {
        for (unsigned c = 0; c < ch_per_mc; ++c) {
            channels_[m][c]->setTrace(
                tracer_.get(), (m * ch_per_mc + c) * banks_per_ch);
        }
    }
    for (unsigned i = 0; i < slices_.size(); ++i)
        slices_[i]->setTrace(tracer_.get(), obs::Track::core(i), &now_);
    control_ring_.setTrace(tracer_.get());
    data_ring_.setTrace(tracer_.get());

    if (stream_interval > 0) {
        streamer_ = std::make_unique<obs::StatStreamer>(
            trace_path + ".jsonl", stream_interval);
        if (!streamer_->ok())
            emc_warn("cannot open stat stream " + trace_path + ".jsonl");
    }
}

obs::Track
System::trackOf(const Txn &txn) const
{
    if (txn.is_emc || txn.emc_llc_fill_only)
        return obs::Track::emc(txn.emc_owner);
    return obs::Track::core(txn.core);
}

std::uint8_t
System::txnFlags(const Txn &txn) const
{
    std::uint8_t f = 0;
    if (txn.addr_tainted)
        f |= obs::kFlagDependent;
    if (txn.is_emc)
        f |= obs::kFlagEmc;
    // A Hermes probe is speculative like a prefetch: no demand waits
    // on it, so the trace marks it alike and summaries skip it.
    if (txn.is_prefetch || txn.is_hermes)
        f |= obs::kFlagPrefetch;
    if (txn.for_store)
        f |= obs::kFlagStore;
    return f;
}

void
System::retireTxn(Txn &txn)
{
    // Phase attribution (always on; exported as `phase.*`): a demand
    // whose own read DRAM serviced, up to when its data reached the
    // requester. tools/emctrace applies the same rule to the trace
    // (a `dram_data` annotation), which keeps `emctrace summarize`
    // exact against these histograms.
    if (!txn.is_prefetch && !txn.is_hermes && !txn.for_store
        && txn.t_dram_data != kNoCycle) {
        obs::PhaseTimes t;
        t.created = txn.t_start;
        t.llc_miss =
            txn.t_llc_miss == kNoCycle ? txn.t_start : txn.t_llc_miss;
        t.dram_enqueue = txn.t_mc_enqueue;
        t.dram_issue = txn.t_dram_issue;
        t.dram_data = txn.t_dram_data;
        t.done = txn.t_done;
        const obs::PhaseClass cls =
            (txn.is_emc || txn.emc_llc_fill_only)
                ? obs::PhaseClass::kEmc
                : (txn.addr_tainted ? obs::PhaseClass::kCoreDep
                                    : obs::PhaseClass::kCore);
        phases_.sample(cls, t);
    }
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kRetire, now_,
                  txn.id, trackOf(txn));
    if (ck_txns_)
        ck_txns_->onRetire(*check_, txn.id);
    txns_.erase(txn.id);
}

// --------------------------------------------------------------------
// Topology helpers
// --------------------------------------------------------------------

unsigned
System::sliceOf(Addr line) const
{
    // Hash the line number across slices (avoid striding artifacts).
    const std::uint64_t h = lineNum(line) * 0x9e3779b97f4a7c15ULL;
    return static_cast<unsigned>(h >> 40) % cfg_.num_cores;
}

unsigned
System::mcOfChannel(unsigned channel) const
{
    const unsigned ch_per_mc = cfg_.dram.channels / cfg_.num_mcs;
    return channel / ch_per_mc;
}

unsigned
System::mcOfLine(Addr line) const
{
    return mcOfChannel(mapAddress(line, cfg_.dram).channel);
}

void
System::schedule(Cycle when, EvType type, std::uint64_t token)
{
    const Cycle effective = std::max(when, now_ + 1);
    if (ck_events_) {
        ck_events_->onPush(*check_, when, effective, now_,
                           static_cast<unsigned>(type), token);
    }
    // lint-ok: event-push (this is the schedule API itself)
    events_.push(effective, Event{type, token});
}

void
System::routeControl(unsigned src, unsigned dst, MsgType mtype,
                     std::uint64_t token, EvType ev)
{
    if (src == dst) {
        schedule(now_ + 1, ev, token);
        return;
    }
    RingMsg msg;
    msg.type = mtype;
    msg.src = src;
    msg.dst = dst;
    msg.token = token;
    control_ring_.send(msg, now_);
}

void
System::routeData(unsigned src, unsigned dst, MsgType mtype,
                  std::uint64_t token, EvType ev)
{
    if (src == dst) {
        schedule(now_ + 1, ev, token);
        return;
    }
    RingMsg msg;
    msg.type = mtype;
    msg.src = src;
    msg.dst = dst;
    msg.token = token;
    data_ring_.send(msg, now_);
}

Cycle
System::sliceReady(unsigned slice)
{
    // Each slice accepts a new lookup every other cycle.
    Cycle start = std::max(now_, slice_next_free_[slice]);
    slice_next_free_[slice] = start + 2;
    return start + cfg_.llc_latency;
}

// --------------------------------------------------------------------
// CorePort
// --------------------------------------------------------------------

bool
System::requestLine(CoreId core, Addr paddr_line, Addr pc, bool for_store,
                    bool addr_tainted)
{
    Txn txn;
    txn.id = next_txn_++;
    txn.core = core;
    txn.line = paddr_line;
    txn.pc = pc;
    txn.for_store = for_store;
    txn.addr_tainted = addr_tainted;
    txn.t_start = now_;
    txns_.create(txn.id) = txn;
    if (ck_txns_)
        ck_txns_->onCreate(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                  txn.id, trackOf(txn), txn.line, txnFlags(txn));
    ++outstanding_demand_lines_[paddr_line];

    const unsigned slice = sliceOf(paddr_line);
    routeControl(stopOfCore(core), stopOfCore(slice), MsgType::kMemRead,
                 txn.id, EvType::kSliceArrive);
    return true;
}

void
System::hermesProbe(CoreId core, Addr paddr_line, Addr pc)
{
    ++hermes_probes_issued_;

    // A fill for the line is already in flight (demand, prefetch, EMC
    // or an earlier probe): the probe adds nothing, drop it.
    if (pending_fills_.count(paddr_line)) {
        ++hermes_probes_suppressed_;
        return;
    }

    // Off-critical-path inclusive-LLC presence filter (the same cheap
    // peek the EMC bypass uses): a resident line means the prediction
    // was wrong and the demand will hit — no DRAM traffic.
    const unsigned slice = sliceOf(paddr_line);
    if (slices_[slice]->peek(paddr_line) != nullptr) {
        ++hermes_probes_llc_hit_;
        return;
    }

    Txn txn;
    txn.id = next_txn_++;
    txn.core = core;
    txn.line = paddr_line;
    txn.pc = pc;
    txn.is_hermes = true;
    txn.llc_missed = true;
    txn.t_start = now_;
    txn.t_llc_miss = now_;
    txns_.create(txn.id) = txn;
    if (ck_txns_)
        ck_txns_->onCreate(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                  txn.id, trackOf(txn), txn.line, txnFlags(txn));

    // Open the cross-agent MSHR window so the demand merges onto this
    // probe's fill at the slice, and head straight for the home MC —
    // the whole point is skipping the ring+LLC walk.
    hermes_probe_lines_[paddr_line] = HermesProbe{now_, false};
    pending_fills_[paddr_line];
    routeControl(stopOfCore(core), stopOfMc(mcOfLine(paddr_line)),
                 MsgType::kControlMisc, txn.id, EvType::kMcEnqueue);
}

void
System::storeThrough(CoreId core, Addr paddr_line)
{
    Txn txn;
    txn.id = next_txn_++;
    txn.core = core;
    txn.line = paddr_line;
    txn.for_store = true;
    txn.t_start = now_;
    txns_.create(txn.id) = txn;
    if (ck_txns_)
        ck_txns_->onCreate(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                  txn.id, trackOf(txn), txn.line, txnFlags(txn));

    const unsigned slice = sliceOf(paddr_line);
    routeData(stopOfCore(core), stopOfCore(slice), MsgType::kWriteback,
              txn.id, EvType::kSliceStore);
}

bool
System::offloadChain(const ChainRequest &chain)
{
    // The chain targets the EMC co-located with the MC owning the
    // source miss's channel (dual-MC case, Section 4.4).
    if (emcs_.empty())
        return false;
    const unsigned mc = mcOfLine(chain.source_paddr_line)
                        % static_cast<unsigned>(emcs_.size());
    if (!emcs_[mc]->hasFreeContext())
        return false;

    if (check_)
        check::validateChain(chain, *check_, "core" +
                             std::to_string(chain.core) + ".offload");

    const std::uint64_t id = next_msg_id_++;
    // Charge the exact wire size of the paper's 6-byte uop format
    // plus the live-in vector (the codec also validates that the
    // chain fits the format at all).
    EncodedChain enc;
    const bool encodable = encodeChain(chain, enc);
    emc_assert(encodable, "chain generation produced an unencodable "
                          "chain");
    const unsigned bytes = enc.wireBytes();
    const unsigned msgs =
        std::max(1u, (bytes + kLineBytes - 1) / kLineBytes);
    chains_in_flight_[id] = {chain, msgs};
    for (unsigned m = 0; m < msgs; ++m) {
        routeData(stopOfCore(chain.core), stopOfMc(mc),
                  MsgType::kChainTransfer, id, EvType::kChainArrive);
    }
    return true;
}

void
System::tlbShootdown(CoreId core, Addr vpage)
{
    for (auto &e : emcs_)
        e->tlbShootdown(core, vpage);
}

bool
System::emcTlbResident(CoreId core, Addr vpage)
{
    for (auto &e : emcs_) {
        if (e->tlbResident(core, vpage))
            return true;
    }
    return false;
}

// --------------------------------------------------------------------
// EmcPort entry points (via adapters)
// --------------------------------------------------------------------

bool
System::emcDirectDram(unsigned from_mc, CoreId core, Addr paddr_line,
                      std::uint64_t token)
{
    Txn txn;
    txn.id = next_txn_++;
    txn.core = core;
    txn.line = paddr_line;
    txn.is_emc = true;
    txn.emc_token = token;
    txn.emc_owner = from_mc;
    txn.t_start = now_;

    // Off-critical-path inclusive-LLC probe: was the bypass correct?
    const unsigned slice = sliceOf(paddr_line);
    const bool in_llc = slices_[slice]->peek(paddr_line) != nullptr;
    txn.llc_missed = !in_llc;
    if (in_llc)
        ++emc_bypass_wrong_;

    Txn &slot = txns_.create(txn.id);
    slot = txn;
    if (ck_txns_)
        ck_txns_->onCreate(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                  txn.id, trackOf(txn), txn.line, txnFlags(txn));
    if (tryMergeFill(slot))
        return true;  // piggybacks on an in-flight fill
    pending_fills_[txn.line];

    // Cross-channel dependencies go MC-to-MC directly, cutting the
    // core out of the path (Section 4.4).
    const unsigned home_mc = mcOfLine(paddr_line);
    routeControl(stopOfMc(from_mc), stopOfMc(home_mc),
                 MsgType::kControlMisc, txn.id, EvType::kMcEnqueue);
    return true;
}

bool
System::emcLlcQuery(unsigned from_mc, CoreId core, Addr paddr_line,
                    std::uint64_t token, Addr pc)
{
    Txn txn;
    txn.id = next_txn_++;
    txn.core = core;
    txn.line = paddr_line;
    txn.pc = pc;
    txn.is_emc = true;
    txn.emc_via_llc = true;
    txn.emc_token = token;
    txn.emc_owner = from_mc;
    txn.t_start = now_;
    txns_.create(txn.id) = txn;
    if (ck_txns_)
        ck_txns_->onCreate(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                  txn.id, trackOf(txn), txn.line, txnFlags(txn));

    const unsigned slice = sliceOf(paddr_line);
    routeControl(stopOfMc(from_mc), stopOfCore(slice),
                 MsgType::kEmcLlcQuery, txn.id, EvType::kEmcQueryArrive);
    return true;
}

void
System::emcLsqPopulate(unsigned from_mc, CoreId core,
                       std::uint64_t rob_seq, Addr paddr,
                       std::uint64_t chain_id)
{
    const std::uint64_t id = next_msg_id_++;
    lsq_msgs_[id] = {core, rob_seq, paddr, chain_id};
    routeControl(stopOfMc(from_mc), stopOfCore(core),
                 MsgType::kLsqPopulate, id, EvType::kLsqPopulate);
}

void
System::emcChainResult(unsigned from_mc, const ChainResult &result,
                       unsigned bytes)
{
    const std::uint64_t id = next_msg_id_++;
    const unsigned msgs =
        std::max(1u, (bytes + kLineBytes - 1) / kLineBytes);
    results_in_flight_[id] = {result, msgs};
    for (unsigned m = 0; m < msgs; ++m) {
        routeData(stopOfMc(from_mc), stopOfCore(result.core),
                  MsgType::kLiveOut, id, EvType::kChainResult);
    }
}

// --------------------------------------------------------------------
// Event handlers
// --------------------------------------------------------------------

void
System::handleSliceArrive(std::uint64_t token)
{
    const Txn *tp = txns_.find(token);
    if (!tp)
        return;
    const unsigned slice = sliceOf(tp->line);
    schedule(sliceReady(slice), EvType::kSliceLookup, token);
}

void
System::observeAtLlc(Txn &txn, bool hit)
{
    // Train the prefetcher on the demand stream at the LLC and feed the
    // EMC's hit/miss predictor.
    if (!txn.is_prefetch) {
        if (prefetcher_)
            prefetcher_->observe(txn.core, txn.line, txn.pc, !hit,
                                 fdp_.degree());
        if (!emcs_.empty() && !txn.for_store) {
            for (auto &e : emcs_)
                e->missPredUpdate(txn.core, txn.pc, txn.line, !hit);
        }
    }
    if (hit && fdp_.isPendingPrefetch(txn.line)) {
        ++demand_hits_on_prefetch_;
        if (txn.addr_tainted)
            ++dep_misses_covered_by_pf_;
        fdp_.demandTouch(txn.line);
    }
}

void
System::handleSliceLookup(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    const unsigned slice = sliceOf(txn.line);
    ++llc_total_accesses_;

    const bool hit = slices_[slice]->access(txn.line) != nullptr;
    ++llc_demand_accesses_;
    observeAtLlc(txn, hit);

    if (hit) {
        finalizeToCore(txn, slice);
        return;
    }

    // Figure 2's idealization: dependent misses become LLC hits.
    if (cfg_.ideal_dependent_hits && txn.addr_tainted) {
        ++ideal_dep_hits_granted_;
        if (slices_[slice]->peek(txn.line) == nullptr)
            insertIntoLlc(txn);
        finalizeToCore(txn, slice);
        return;
    }

    txn.llc_missed = true;
    txn.t_llc_miss = now_;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kLlcMiss, now_,
                  txn.id, trackOf(txn), txn.line);
    ++llc_demand_misses_;
    if (txn.addr_tainted)
        ++llc_dep_misses_;
    fdp_.demandMiss(txn.line);  // pollution check
    if (outstanding_prefetch_lines_.count(txn.line))
        fdp_.lateHit(txn.line);  // useful but untimely
    cores_[txn.core]->llcMissDetermined(txn.line);

    if (tryMergeFill(txn)) {
        // Merged onto an in-flight Hermes probe: the demand inherits
        // the probe's DRAM head start (launched at dispatch, before
        // the ring+LLC walk this request just finished).
        auto hp = hermes_probe_lines_.find(txn.line);
        if (hp != hermes_probe_lines_.end()) {
            hp->second.used = true;
            ++hermes_merged_demands_;
            hermes_saved_cycles_ += now_ - hp->second.start;
        }
        return;
    }
    pending_fills_[txn.line];
    routeControl(stopOfCore(slice), stopOfMc(mcOfLine(txn.line)),
                 MsgType::kLlcMissToMc, token, EvType::kMcEnqueue);
}

void
System::finalizeToCore(Txn &txn, unsigned slice)
{
    routeData(stopOfCore(slice), stopOfCore(txn.core),
              MsgType::kFillToCore, txn.id, EvType::kFillAtCore);
}

void
System::handleSliceStore(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    const unsigned slice = sliceOf(txn.line);
    ++llc_total_accesses_;

    CacheLineMeta *meta = slices_[slice]->access(txn.line);
    observeAtLlc(txn, meta != nullptr);
    if (meta) {
        meta->dirty = true;
        retireTxn(txn);
        return;
    }
    // Fetch-on-write: read the line from DRAM, then install dirty.
    txn.llc_missed = true;
    txn.t_llc_miss = now_;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kLlcMiss, now_,
                  txn.id, trackOf(txn), txn.line);
    if (tryMergeFill(txn))
        return;
    pending_fills_[txn.line];
    routeControl(stopOfCore(slice), stopOfMc(mcOfLine(txn.line)),
                 MsgType::kLlcMissToMc, token, EvType::kMcEnqueue);
}

void
System::handleMcEnqueue(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;

    const DramCoord coord = mapAddress(txn.line, cfg_.dram);
    const unsigned mc = mcOfChannel(coord.channel);
    const unsigned ch_per_mc = cfg_.dram.channels / cfg_.num_mcs;
    DramChannel &ch = *channels_[mc][coord.channel % ch_per_mc];

    MemRequest req;
    req.id = txn.id;
    req.token = txn.id;
    req.paddr = txn.line;
    req.is_write = false;
    req.core = txn.core;
    req.cycle_llc_miss = txn.t_llc_miss;
    if (txn.is_emc)
        req.origin = ReqOrigin::kEmcDemand;
    else if (txn.is_prefetch)
        req.origin = ReqOrigin::kPrefetch;
    else
        req.origin = ReqOrigin::kCoreDemand;

    if (!ch.enqueue(req, now_)) {
        // Queue full: retry shortly (models MC backpressure).
        schedule(now_ + 4, EvType::kMcEnqueue, token);
        return;
    }
    txn.t_mc_enqueue = now_;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kDramEnqueue, now_,
                  txn.id, trackOf(txn), txn.line);
    if (ck_txns_)
        ck_txns_->onIssue(*check_, txn.id);
    if (txn.is_hermes) {
        // Rides the core-demand DRAM priority class but is accounted
        // separately: probe traffic is the cost knob of Hermes.
        ++traffic_.hermes;
    } else {
        switch (req.origin) {
          case ReqOrigin::kCoreDemand: ++traffic_.core_demand; break;
          case ReqOrigin::kEmcDemand: ++traffic_.emc_demand; break;
          case ReqOrigin::kPrefetch: ++traffic_.prefetch; break;
          case ReqOrigin::kWriteback: ++traffic_.writeback; break;
        }
    }
}

void
System::handleDramDone(unsigned mc, const MemRequest &req)
{
    Txn *tp = txns_.find(req.token);
    if (!tp)
        return;
    Txn &txn = *tp;
    txn.t_dram_issue = req.cycle_dram_issue;
    txn.t_dram_data = req.cycle_dram_data;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kDramData,
                  txn.t_dram_data, txn.id, trackOf(txn),
                  txn.t_dram_issue);
    if (ck_txns_)
        ck_txns_->onDramDone(*check_, txn.id);

    // The EMC at this controller snoops every arriving fill
    // (Section 4.1.3) and may be waiting on it as chain source data.
    if (!emcs_.empty())
        emcs_[mc % emcs_.size()]->observeFill(txn.line);

    if (txn.is_emc) {
        ++emc_generated_misses_;
        if (cfg_.record_emc_miss_lines)
            emc_miss_lines_.insert(txn.line);
        // The EMC at the owning controller has its data the moment
        // the burst completes; a cross-MC request's data rides the
        // ring back to the issuing EMC, and the reply retires the txn
        // if the LLC install below finishes first.
        if (txn.emc_owner == mc) {
            deliverToEmc(txn, true);
        } else {
            routeData(stopOfMc(mc), stopOfMc(txn.emc_owner),
                      MsgType::kEmcFillReply, txn.id,
                      EvType::kEmcDirectReply);
        }
        // Remaining work for this txn: fill the LLC (inclusive).
        txn.is_emc = false;
        txn.emc_llc_fill_only = true;
    }

    const unsigned slice = sliceOf(txn.line);
    routeData(stopOfMc(mc), stopOfCore(slice), MsgType::kFillToSlice,
              req.token, EvType::kFillAtSlice);
}


bool
System::tryMergeFill(Txn &txn)
{
    auto it = pending_fills_.find(txn.line);
    if (it == pending_fills_.end())
        return false;
    it->second.push_back(txn.id);
    return true;
}

void
System::dispatchMergedFill(std::uint64_t token, unsigned slice)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    txn.t_fill = now_;
    if (ck_txns_)
        ck_txns_->onFill(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kFill, now_, txn.id,
                  trackOf(txn), txn.line);
    if (txn.is_prefetch) {
        outstanding_prefetch_lines_.erase(txn.line);
        retireTxn(txn);
        return;
    }
    if (txn.is_emc) {
        // The merged EMC load completes as the shared fill passes.
        deliverToEmc(txn, true);
        retireTxn(txn);
        return;
    }
    if (txn.for_store) {
        if (CacheLineMeta *m = slices_[slice]->peek(txn.line))
            m->dirty = true;
        retireTxn(txn);
        return;
    }
    if (CacheLineMeta *m = slices_[slice]->peek(txn.line))
        m->presence |= (1u << txn.core);
    routeData(stopOfCore(slice), stopOfCore(txn.core),
              MsgType::kFillToCore, token, EvType::kFillAtCore);
}

void
System::insertIntoLlc(Txn &txn)
{
    const unsigned slice = sliceOf(txn.line);
    if (CacheLineMeta *existing = slices_[slice]->peek(txn.line)) {
        if (txn.for_store)
            existing->dirty = true;
        return;
    }
    CacheLineMeta meta;
    meta.dirty = txn.for_store;
    Cache::Victim victim = slices_[slice]->insert(txn.line, meta);
    ++llc_total_accesses_;
    if (victim.valid) {
        fdp_.evicted(victim.addr);
        if (txn.is_prefetch)
            fdp_.prefetchEvictedVictim(victim.addr);
        if (victim.meta.emc && !emcs_.empty()) {
            for (auto &e : emcs_)
                e->invalidateLine(victim.addr);
        }
        // Inclusive hierarchy: back-invalidate L1 copies.
        for (unsigned c = 0; c < cfg_.num_cores; ++c) {
            if (victim.meta.presence & (1u << c))
                cores_[c]->invalidateL1(victim.addr);
        }
        if (victim.meta.dirty) {
            const DramCoord coord = mapAddress(victim.addr, cfg_.dram);
            const unsigned mc = mcOfChannel(coord.channel);
            const unsigned ch_per_mc =
                cfg_.dram.channels / cfg_.num_mcs;
            MemRequest wb;
            wb.paddr = victim.addr;
            wb.is_write = true;
            wb.origin = ReqOrigin::kWriteback;
            wb.core = txn.core;
            channels_[mc][coord.channel % ch_per_mc]->enqueue(wb, now_);
            ++traffic_.writeback;
        }
    }
}

void
System::handleFillAtSlice(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    const unsigned slice = sliceOf(txn.line);
    txn.t_fill = now_;
    if (ck_txns_)
        ck_txns_->onFill(*check_, txn.id);
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kFill, now_, txn.id,
                  trackOf(txn), txn.line);

    insertIntoLlc(txn);

    // Wake every transaction merged onto this fill and close the
    // window (cross-agent MSHR semantics).
    auto pit = pending_fills_.find(txn.line);
    if (pit != pending_fills_.end()) {
        const std::vector<std::uint64_t> merged = std::move(pit->second);
        pending_fills_.erase(pit);
        for (std::uint64_t m : merged)
            dispatchMergedFill(m, slice);
        if (!txns_.find(token))
            return;
    }

    if (txn.is_hermes) {
        // The probe's work is done once the line is in the LLC and
        // every merged demand has been dispatched above. Classify it:
        // a demand merged onto the fill (useful) or nothing wanted the
        // line before it arrived (useless — mispredicted or too late).
        auto hp = hermes_probe_lines_.find(txn.line);
        if (hp != hermes_probe_lines_.end()) {
            if (hp->second.used)
                ++hermes_probes_useful_;
            else
                ++hermes_probes_useless_;
            hermes_probe_lines_.erase(hp);
        }
        retireTxn(txn);
        return;
    }
    if (txn.is_prefetch) {
        outstanding_prefetch_lines_.erase(txn.line);
        fdp_.issued(txn.line);
        if (cfg_.record_prefetch_lines)
            prefetch_lines_.insert(txn.line);
        retireTxn(txn);
        return;
    }
    if (txn.emc_llc_fill_only) {
        // Mark the EMC directory bit: the EMC data cache holds it.
        if (CacheLineMeta *m = slices_[slice]->peek(txn.line))
            m->emc = true;
        // A cross-MC reply still on the ring retires the txn when it
        // reaches the EMC.
        if (txn.t_done != kNoCycle)
            retireTxn(txn);
        return;
    }
    if (txn.for_store) {
        retireTxn(txn);
        return;
    }

    if (CacheLineMeta *m = slices_[slice]->peek(txn.line))
        m->presence |= (1u << txn.core);
    routeData(stopOfCore(slice), stopOfCore(txn.core),
              MsgType::kFillToCore, token, EvType::kFillAtCore);
}

void
System::handleFillAtCore(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    txn.t_done = now_;
    if (ck_txns_)
        ck_txns_->onFill(*check_, txn.id);

    const unsigned slice = sliceOf(txn.line);
    if (CacheLineMeta *m = slices_[slice]->peek(txn.line))
        m->presence |= (1u << txn.core);

    cores_[txn.core]->fillArrived(txn.line, txn.llc_missed);

    auto oit = outstanding_demand_lines_.find(txn.line);
    if (oit != outstanding_demand_lines_.end()) {
        if (--oit->second == 0)
            outstanding_demand_lines_.erase(oit);
    }
    retireTxn(txn);
}

void
System::handleChainArrive(std::uint64_t token)
{
    auto it = chains_in_flight_.find(token);
    if (it == chains_in_flight_.end())
        return;
    if (--it->second.msgs_remaining > 0)
        return;
    ChainRequest chain = std::move(it->second.chain);
    chains_in_flight_.erase(it);

    const unsigned mc = mcOfLine(chain.source_paddr_line)
                        % static_cast<unsigned>(emcs_.size());
    // The context must arm when the source fill crosses the MC. If
    // every transaction for the line has already passed DRAM (or none
    // exists), that observeFill has fired — possibly while this chain
    // was still on the ring — so arm immediately. Transactions merged
    // onto another agent's in-flight fill (cross-agent MSHR waiters,
    // e.g. a demand riding a Hermes probe) never pass DRAM themselves
    // and must not keep the chain waiting for a fill that already
    // crossed the controller.
    const auto pend = pending_fills_.find(chain.source_paddr_line);
    const bool source_arrived = !txns_.anyOf([&](const Txn &t) {
        if (t.line != chain.source_paddr_line || t.is_prefetch
            || t.t_dram_data != kNoCycle || t.t_fill != kNoCycle)
            return false;
        if (pend != pending_fills_.end()) {
            const auto &waiters = pend->second;
            if (std::find(waiters.begin(), waiters.end(), t.id)
                != waiters.end())
                return false;
        }
        return true;
    });

    if (!emcs_[mc]->acceptChain(chain, source_arrived)) {
        // Raced out of contexts: bounce a cancel back to the core.
        ChainResult res;
        res.chain_id = chain.id;
        res.core = chain.core;
        res.outcome = ChainOutcome::kDisambiguation;
        for (const ChainUop &cu : chain.uops) {
            if (cu.is_source)
                continue;
            LiveOut lo;
            lo.rob_seq = cu.rob_seq;
            res.live_outs.push_back(lo);
        }
        emcChainResult(mc, res, 8);
    }
}

void
System::handleLsqPopulate(std::uint64_t token)
{
    auto it = lsq_msgs_.find(token);
    if (it == lsq_msgs_.end())
        return;
    const LsqMsg msg = it->second;
    lsq_msgs_.erase(it);

    const bool conflict =
        cores_[msg.core]->lsqPopulate(msg.rob_seq, msg.paddr);
    if (conflict) {
        for (auto &e : emcs_)
            e->cancelChain(msg.chain_id, ChainOutcome::kDisambiguation);
    }
}

void
System::handleChainResult(std::uint64_t token)
{
    auto it = results_in_flight_.find(token);
    if (it == results_in_flight_.end())
        return;
    if (--it->second.msgs_remaining > 0)
        return;
    ChainResult res = std::move(it->second.result);
    results_in_flight_.erase(it);
    cores_[res.core]->chainResult(res);
}

void
System::handleEmcQueryArrive(std::uint64_t token)
{
    const Txn *tp = txns_.find(token);
    if (!tp)
        return;
    const unsigned slice = sliceOf(tp->line);
    schedule(sliceReady(slice), EvType::kEmcQueryLookup, token);
}

void
System::handleEmcQueryLookup(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    const unsigned slice = sliceOf(txn.line);
    ++llc_total_accesses_;

    const bool hit = slices_[slice]->access(txn.line) != nullptr;
    observeAtLlc(txn, hit);

    if (hit) {
        routeData(stopOfCore(slice), stopOfMc(txn.emc_owner),
                  MsgType::kDataMisc, token, EvType::kEmcQueryReply);
        return;
    }
    txn.llc_missed = true;
    txn.t_llc_miss = now_;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kLlcMiss, now_,
                  txn.id, trackOf(txn), txn.line);
    if (cfg_.record_emc_miss_lines)
        emc_miss_lines_.insert(txn.line);
    if (tryMergeFill(txn))
        return;
    pending_fills_[txn.line];
    routeControl(stopOfCore(slice), stopOfMc(mcOfLine(txn.line)),
                 MsgType::kLlcMissToMc, token, EvType::kMcEnqueue);
}

void
System::handleEmcQueryReply(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    deliverToEmc(txn, false);
    retireTxn(txn);
}

void
System::handleEmcDirectReply(std::uint64_t token)
{
    Txn *tp = txns_.find(token);
    if (!tp)
        return;
    Txn &txn = *tp;
    deliverToEmc(txn, true);
    if (txn.t_fill != kNoCycle)
        retireTxn(txn);  // the LLC install already finished
}

void
System::deliverToEmc(Txn &txn, bool was_llc_miss)
{
    txn.t_done = now_;
    EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kEmcData, now_, txn.id,
                  trackOf(txn), txn.line);
    emcs_[txn.emc_owner]->memResponse(txn.emc_token, was_llc_miss);
}

// --------------------------------------------------------------------
// Prefetch candidate drain
// --------------------------------------------------------------------

void
System::drainPrefetcher()
{
    if (!prefetcher_)
        return;
    PrefetchCandidate cand;
    unsigned budget = 4;
    while (budget > 0 && prefetcher_->nextCandidate(cand)) {
        --budget;
        const Addr line = cand.line_addr;
        const unsigned slice = sliceOf(line);
        if (slices_[slice]->peek(line) != nullptr)
            continue;
        if (outstanding_prefetch_lines_.count(line))
            continue;
        if (outstanding_demand_lines_.count(line))
            continue;
        if (pending_fills_.count(line))
            continue;

        Txn txn;
        txn.id = next_txn_++;
        txn.core = cand.core;
        txn.line = line;
        txn.is_prefetch = true;
        txn.t_start = now_;
        txn.t_llc_miss = now_;
        txns_.create(txn.id) = txn;
        if (ck_txns_)
            ck_txns_->onCreate(*check_, txn.id);
        EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kCreated, now_,
                      txn.id, trackOf(txn), txn.line, txnFlags(txn));
        EMC_OBS_POINT(tracer_.get(), obs::TracePoint::kLlcMiss, now_,
                      txn.id, trackOf(txn), txn.line);
        outstanding_prefetch_lines_.insert(line);
        pending_fills_[line];

        routeControl(stopOfCore(slice), stopOfMc(mcOfLine(line)),
                     MsgType::kLlcMissToMc, txn.id, EvType::kMcEnqueue);
    }
}

// --------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------

void
System::processEvents()
{
    Event ev;
    while (events_.popUpTo(now_, ev)) {
        if (ck_events_) {
            ck_events_->onPop(*check_, now_,
                              static_cast<unsigned>(ev.type), ev.token);
        }
        switch (ev.type) {
          case EvType::kSliceArrive: handleSliceArrive(ev.token); break;
          case EvType::kSliceLookup: handleSliceLookup(ev.token); break;
          case EvType::kSliceStore: handleSliceStore(ev.token); break;
          case EvType::kMcEnqueue: handleMcEnqueue(ev.token); break;
          case EvType::kFillAtSlice: handleFillAtSlice(ev.token); break;
          case EvType::kFillAtCore: handleFillAtCore(ev.token); break;
          case EvType::kChainArrive: handleChainArrive(ev.token); break;
          case EvType::kLsqPopulate: handleLsqPopulate(ev.token); break;
          case EvType::kChainResult: handleChainResult(ev.token); break;
          case EvType::kEmcQueryArrive:
            handleEmcQueryArrive(ev.token);
            break;
          case EvType::kEmcQueryLookup:
            handleEmcQueryLookup(ev.token);
            break;
          case EvType::kEmcQueryReply:
            handleEmcQueryReply(ev.token);
            break;
          case EvType::kEmcDirectReply:
            handleEmcDirectReply(ev.token);
            break;
        }
    }
}

void
System::maybeSnapshotCore(unsigned i)
{
    if (snapshotted_[i])
        return;
    if (cfg_.warmup_uops > 0 && !warmed_up_)
        return;
    if (cores_[i]->retired() < cfg_.target_uops)
        return;
    snapshotted_[i] = true;
    finish_cycle_[i] = now_;
    finish_snapshot_[i] = cores_[i]->stats();
}

bool
System::finished() const
{
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        if (!snapshotted_[i])
            return false;
    }
    return true;
}

void
System::tickOnce()
{
    ++now_;
    processEvents();
    for (auto &mc : channels_) {
        for (auto &ch : mc)
            ch->tick(now_);
    }
    for (auto &e : emcs_)
        e->tick();
    control_ring_.tick(now_);
    data_ring_.tick(now_);
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        cores_[i]->tick();
        maybeSnapshotCore(i);
    }
    drainPrefetcher();
    if (check_)
        runPerTickChecks();
}

bool
System::allRetired(std::uint64_t target) const
{
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        if (cores_[i]->retired() < target)
            return false;
    }
    return true;
}

void
System::resetMeasurement()
{
    for (auto &c : cores_)
        c->resetStats();
    for (auto &mcv : channels_) {
        for (auto &ch : mcv)
            ch->resetStats();
    }
    for (auto &e : emcs_)
        e->resetStats();
    control_ring_.resetStats();
    data_ring_.resetStats();
    traffic_ = TrafficStats{};
    phases_.reset();
    llc_demand_accesses_ = 0;
    llc_demand_misses_ = 0;
    llc_dep_misses_ = 0;
    dep_misses_covered_by_pf_ = 0;
    demand_hits_on_prefetch_ = 0;
    emc_generated_misses_ = 0;
    emc_bypass_wrong_ = 0;
    llc_total_accesses_ = 0;
    ideal_dep_hits_granted_ = 0;
    hermes_probes_issued_ = 0;
    hermes_probes_suppressed_ = 0;
    hermes_probes_llc_hit_ = 0;
    hermes_probes_useful_ = 0;
    hermes_probes_useless_ = 0;
    hermes_merged_demands_ = 0;
    hermes_saved_cycles_ = 0;
    warmup_end_cycle_ = now_;
}

Cycle
System::quiescentUntil() const
{
    // Any component with per-cycle work forces cycle-by-cycle
    // ticking. Checks are ordered cheapest / most-likely-busy first
    // so the common (busy) case costs a few loads per tick.
    for (const auto &mcv : channels_) {
        for (const auto &ch : mcv) {
            if (ch->busy())
                return 0;
        }
    }
    if (control_ring_.pending() != 0 || data_ring_.pending() != 0)
        return 0;
    if (prefetcher_ && prefetcher_->queued() != 0)
        return 0;
    for (const auto &e : emcs_) {
        if (!e->idle())
            return 0;
    }

    Cycle t = kNoCycle;
    for (const auto &c : cores_) {
        const Cycle ct = c->quiescentUntil();
        if (ct == 0)
            return 0;
        t = std::min(t, ct);
    }
    // Everything is idle: bound the jump by the next event and by
    // each channel's refresh boundary (an idle channel still
    // refreshes on schedule, and the refresh must fire on its exact
    // cycle).
    t = std::min(t, events_.nextCycle());
    for (const auto &mcv : channels_) {
        for (const auto &ch : mcv)
            t = std::min(t, ch->nextRefresh());
    }
    return t;
}

void
System::maybeSkipIdle()
{
    if (!cycle_skip_enabled_ || now_ < next_skip_check_)
        return;
    const Cycle target = std::min(quiescentUntil(), cfg_.max_cycles);
    if (target <= now_ + 1) {
        // Busy, or the next tick is already the wakeup. Back off so
        // the quiescence scan doesn't tax memory-bound phases where
        // the machine is never idle; skipping is purely an
        // optimization, so deferring the next attempt never changes
        // any stat (only shortens the windows we manage to skip).
        // The backoff doubles per consecutive failure (up to the cap)
        // so phases that never go idle converge to one scan per 4096
        // cycles instead of one per 16, and resets as soon as a skip
        // succeeds so bursty-idle phases keep skipping promptly.
        next_skip_check_ = now_ + skip_backoff_;
        skip_backoff_ = std::min(skip_backoff_ * 2, kSkipBackoffMax);
        return;
    }
    skip_backoff_ = kSkipBackoffMin;
    const std::uint64_t n = target - (now_ + 1);
    now_ += n;
    for (auto &c : cores_)
        c->skipIdleCycles(n);
}

void
System::run()
{
    if (cfg_.warmup_uops > 0 && !warmed_up_) {
        while (!allRetired(cfg_.warmup_uops) && now_ < cfg_.max_cycles) {
            maybeSkipIdle();
            tickOnce();
            if (streamer_ && now_ >= streamer_->nextDue())
                streamer_->snapshot(now_, dump());
            maybeCheckpoint();
        }
        resetMeasurement();
        warmed_up_ = true;
    }
    while (!finished() && now_ < cfg_.max_cycles) {
        maybeSkipIdle();
        tickOnce();
        if (streamer_ && now_ >= streamer_->nextDue())
            streamer_->snapshot(now_, dump());
        maybeCheckpoint();
    }
    if (!finished()) {
        emc_warn("simulation hit max_cycles before all cores finished");
        for (unsigned i = 0; i < cfg_.num_cores; ++i)
            maybeSnapshotCore(i);
    }
    if (check_)
        finalizeChecks();
    if (streamer_)
        streamer_->finish(now_, dump());
    if (tracer_)
        tracer_->finish(now_);
    // Finalize capture files (write the seek index, patch counts) so
    // the recorded traces are complete the moment the run ends.
    for (trace::Recorder *rec : capture_recorders_)
        rec->finish();
}

// --------------------------------------------------------------------
// Statistics dump
// --------------------------------------------------------------------

StatDump
System::dump() const
{
    StatDump d;
    d.put("system.cycles", static_cast<double>(now_));
    d.put("system.num_cores", cfg_.num_cores);

    double ws_ipc_sum = 0;
    EnergyEvents ev;
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        const CoreStats &cs =
            snapshotted_[i] ? finish_snapshot_[i] : cores_[i]->stats();
        const std::string p = "core" + std::to_string(i) + ".";
        // cs.cycles counts ticks since the last stats reset, so IPC is
        // measured over the post-warmup window.
        const double cycles = static_cast<double>(cs.cycles);
        const double ipc =
            cycles > 0 ? static_cast<double>(cs.retired_uops) / cycles
                       : 0.0;
        d.put(p + "ipc", ipc);
        d.put(p + "retired", static_cast<double>(cs.retired_uops));
        d.put(p + "cycles", cycles);
        d.put(p + "llc_misses", static_cast<double>(cs.llc_misses));
        d.put(p + "dependent_llc_misses",
              static_cast<double>(cs.dependent_llc_misses));
        d.put(p + "mpki",
              cs.retired_uops
                  ? 1000.0 * cs.llc_misses / cs.retired_uops
                  : 0.0);
        d.put(p + "dep_miss_frac",
              cs.llc_misses ? static_cast<double>(cs.dependent_llc_misses)
                                  / cs.llc_misses
                            : 0.0);
        d.put(p + "dep_distance", cs.dep_distance.mean());
        d.put(p + "full_window_stalls",
              static_cast<double>(cs.full_window_stall_cycles));
        d.put(p + "chains_generated",
              static_cast<double>(cs.chains_generated));
        d.put(p + "chain_uops_avg",
              cs.chains_generated
                  ? static_cast<double>(cs.chain_uops_total)
                        / cs.chains_generated
                  : 0.0);
        d.put(p + "chain_live_ins_avg",
              cs.chains_generated
                  ? static_cast<double>(cs.chain_live_ins_total)
                        / cs.chains_generated
                  : 0.0);
        d.put(p + "branches", static_cast<double>(cs.branches));
        d.put(p + "mispredicts", static_cast<double>(cs.mispredicts));
        if (cfg_.core.runahead_enabled) {
            // Whole-run counters, like the EMC's: runahead keeps going
            // after the core's measured window closes.
            const CoreStats &live = cores_[i]->stats();
            d.put(p + "runahead_prefetches",
                  static_cast<double>(live.runahead_prefetches));
            d.put(p + "runahead_dropped_loads",
                  static_cast<double>(live.runahead_dropped_loads));
        }
        ws_ipc_sum += ipc;

        ev.uops_executed += cs.uops_executed;
        ev.fp_uops += cs.fp_uops_executed;
        ev.cdb_broadcasts += cs.cdb_broadcasts;
        ev.rob_reads += cs.rob_chain_reads;
        ev.rrt_accesses += cs.rrt_reads + cs.rrt_writes;
        ev.l1_accesses += cs.l1d_hits + cs.l1d_misses;
    }
    d.put("system.ipc_sum", ws_ipc_sum);

    // LLC aggregates.
    d.put("llc.demand_accesses",
          static_cast<double>(llc_demand_accesses_));
    d.put("llc.demand_misses", static_cast<double>(llc_demand_misses_));
    d.put("llc.dep_misses", static_cast<double>(llc_dep_misses_));
    d.put("llc.dep_miss_frac",
          llc_demand_misses_
              ? static_cast<double>(llc_dep_misses_) / llc_demand_misses_
              : 0.0);
    d.put("llc.demand_hits_on_prefetch",
          static_cast<double>(demand_hits_on_prefetch_));
    d.put("llc.dep_misses_covered_by_pf",
          static_cast<double>(dep_misses_covered_by_pf_));
    d.put("llc.ideal_dep_hits_granted",
          static_cast<double>(ideal_dep_hits_granted_));
    d.put("prefetch.degree", fdp_.degree());
    d.put("prefetch.issued", static_cast<double>(fdp_.totalIssued()));
    d.put("prefetch.useful", static_cast<double>(fdp_.totalUseful()));
    d.put("prefetch.late", static_cast<double>(fdp_.totalLate()));
    d.put("prefetch.polluted",
          static_cast<double>(fdp_.totalPolluted()));
    d.put("prefetch.accuracy", fdp_.accuracy());

    // DRAM aggregates.
    std::uint64_t row_hits = 0, row_empty = 0, row_conf = 0;
    std::uint64_t reads = 0, writes = 0, refreshes = 0;
    double queue_wait = 0, service = 0;
    std::uint64_t read_samples = 0;
    for (const auto &mcv : channels_) {
        for (const auto &ch : mcv) {
            const DramChannelStats &cs = ch->stats();
            row_hits += cs.row_hits;
            row_empty += cs.row_empty;
            row_conf += cs.row_conflicts;
            reads += cs.reads;
            writes += cs.writes;
            refreshes += cs.refreshes;
            queue_wait += cs.total_queue_wait;
            service += cs.total_service;
            read_samples += cs.read_samples;
        }
    }
    d.put("dram.reads", static_cast<double>(reads));
    d.put("dram.writes", static_cast<double>(writes));
    d.put("dram.row_hits", static_cast<double>(row_hits));
    d.put("dram.row_empty", static_cast<double>(row_empty));
    d.put("dram.row_conflicts", static_cast<double>(row_conf));
    const std::uint64_t row_total = row_hits + row_empty + row_conf;
    d.put("dram.row_conflict_rate",
          row_total ? static_cast<double>(row_conf) / row_total : 0.0);
    d.put("dram.avg_queue_wait",
          read_samples ? queue_wait / read_samples : 0.0);
    d.put("dram.avg_service",
          read_samples ? service / read_samples : 0.0);

    // Traffic by origin.
    d.put("traffic.core_demand",
          static_cast<double>(traffic_.core_demand));
    d.put("traffic.emc_demand", static_cast<double>(traffic_.emc_demand));
    d.put("traffic.prefetch", static_cast<double>(traffic_.prefetch));
    d.put("traffic.writeback", static_cast<double>(traffic_.writeback));
    d.put("traffic.hermes", static_cast<double>(traffic_.hermes));
    d.put("traffic.total", static_cast<double>(traffic_.total()));

    // Miss-latency decomposition (DESIGN.md §6; always on).
    // lat.core_total / lat.emc_total are the headline means.
    phases_.exportTo(d);
    d.put("lat.core_total",
          phases_.hist(obs::PhaseClass::kCore, obs::kPhaseTotal).mean());
    d.put("lat.emc_total",
          phases_.hist(obs::PhaseClass::kEmc, obs::kPhaseTotal).mean());

    // EMC aggregates.
    d.put("emc.generated_misses",
          static_cast<double>(emc_generated_misses_));
    const double all_misses = static_cast<double>(llc_demand_misses_)
                              + static_cast<double>(emc_generated_misses_);
    d.put("emc.miss_fraction",
          all_misses > 0 ? emc_generated_misses_ / all_misses : 0.0);
    d.put("emc.bypass_wrong", static_cast<double>(emc_bypass_wrong_));
    if (!emcs_.empty()) {
        EmcStats agg;
        double uops_per_chain = 0, exec_cycles = 0;
        std::uint64_t upc_samples = 0, exec_samples = 0;
        for (const auto &e : emcs_) {
            const EmcStats &s = e->stats();
            agg.chains_accepted += s.chains_accepted;
            agg.chains_completed += s.chains_completed;
            agg.chains_rejected += s.chains_rejected;
            agg.halts_tlb += s.halts_tlb;
            agg.halts_mispredict += s.halts_mispredict;
            agg.halts_disambiguation += s.halts_disambiguation;
            agg.uops_executed += s.uops_executed;
            agg.loads_executed += s.loads_executed;
            agg.stores_executed += s.stores_executed;
            agg.dcache_hits += s.dcache_hits;
            agg.dcache_misses += s.dcache_misses;
            agg.lsq_forwards += s.lsq_forwards;
            agg.direct_dram_loads += s.direct_dram_loads;
            agg.llc_query_loads += s.llc_query_loads;
            agg.live_outs_total += s.live_outs_total;
            uops_per_chain += s.uops_per_chain.total();
            upc_samples += s.uops_per_chain.samples();
            exec_cycles += s.chain_exec_cycles.total();
            exec_samples += s.chain_exec_cycles.samples();
        }
        d.put("emc.chains_accepted",
              static_cast<double>(agg.chains_accepted));
        d.put("emc.chains_completed",
              static_cast<double>(agg.chains_completed));
        d.put("emc.chains_rejected",
              static_cast<double>(agg.chains_rejected));
        d.put("emc.halts_tlb", static_cast<double>(agg.halts_tlb));
        d.put("emc.halts_mispredict",
              static_cast<double>(agg.halts_mispredict));
        d.put("emc.halts_disambiguation",
              static_cast<double>(agg.halts_disambiguation));
        d.put("emc.uops_executed",
              static_cast<double>(agg.uops_executed));
        d.put("emc.loads", static_cast<double>(agg.loads_executed));
        d.put("emc.stores", static_cast<double>(agg.stores_executed));
        d.put("emc.dcache_hits", static_cast<double>(agg.dcache_hits));
        d.put("emc.dcache_misses",
              static_cast<double>(agg.dcache_misses));
        const double dc_total = static_cast<double>(agg.dcache_hits)
                                + static_cast<double>(agg.dcache_misses);
        d.put("emc.dcache_hit_rate",
              dc_total > 0 ? agg.dcache_hits / dc_total : 0.0);
        d.put("emc.lsq_forwards", static_cast<double>(agg.lsq_forwards));
        d.put("emc.direct_dram_loads",
              static_cast<double>(agg.direct_dram_loads));
        d.put("emc.llc_query_loads",
              static_cast<double>(agg.llc_query_loads));
        d.put("emc.live_outs", static_cast<double>(agg.live_outs_total));
        d.put("emc.uops_per_chain",
              upc_samples ? uops_per_chain / upc_samples : 0.0);
        d.put("emc.chain_exec_cycles",
              exec_samples ? exec_cycles / exec_samples : 0.0);

        ev.emc_uops = agg.uops_executed;
        ev.emc_dcache_accesses = agg.dcache_hits + agg.dcache_misses;

        // Off-chip predictor quality at the EMC (src/pred; DESIGN.md
        // §13). Aggregated over EMCs like the emc.* block above.
        pred::PredStats ps;
        for (const auto &e : emcs_) {
            const pred::PredStats &s = e->predictor().stats();
            ps.predictions += s.predictions;
            ps.predicted_offchip += s.predicted_offchip;
            ps.trainings += s.trainings;
            ps.true_pos += s.true_pos;
            ps.false_pos += s.false_pos;
            ps.true_neg += s.true_neg;
            ps.false_neg += s.false_neg;
        }
        d.put("pred.emc.engine",
              static_cast<double>(
                  static_cast<unsigned>(emcs_[0]->predictor().kind())));
        d.put("pred.emc.predictions",
              static_cast<double>(ps.predictions));
        d.put("pred.emc.predicted_offchip",
              static_cast<double>(ps.predicted_offchip));
        d.put("pred.emc.trainings", static_cast<double>(ps.trainings));
        d.put("pred.emc.true_pos", static_cast<double>(ps.true_pos));
        d.put("pred.emc.false_pos", static_cast<double>(ps.false_pos));
        d.put("pred.emc.true_neg", static_cast<double>(ps.true_neg));
        d.put("pred.emc.false_neg", static_cast<double>(ps.false_neg));
        d.put("pred.emc.accuracy", ps.accuracy());
        d.put("pred.emc.coverage", ps.coverage());
        // Each correct LLC bypass skips the slice lookup on the miss
        // path — the latency win the 3-bit table buys (Section 4.3).
        const double bypass_right =
            static_cast<double>(agg.direct_dram_loads)
            - static_cast<double>(emc_bypass_wrong_);
        d.put("pred.emc.bypass_cycles_saved",
              std::max(0.0, bypass_right)
                  * static_cast<double>(cfg_.llc_latency));
    }

    // Core-side Hermes probes (DESIGN.md §13).
    if (cfg_.core.hermes_enabled) {
        pred::PredStats ps;
        for (const auto &c : cores_) {
            if (const pred::OffchipPredictor *hp = c->hermesPredictor()) {
                const pred::PredStats &s = hp->stats();
                ps.predictions += s.predictions;
                ps.predicted_offchip += s.predicted_offchip;
                ps.trainings += s.trainings;
                ps.true_pos += s.true_pos;
                ps.false_pos += s.false_pos;
                ps.true_neg += s.true_neg;
                ps.false_neg += s.false_neg;
            }
        }
        d.put("pred.hermes.predictions",
              static_cast<double>(ps.predictions));
        d.put("pred.hermes.predicted_offchip",
              static_cast<double>(ps.predicted_offchip));
        d.put("pred.hermes.trainings",
              static_cast<double>(ps.trainings));
        d.put("pred.hermes.true_pos", static_cast<double>(ps.true_pos));
        d.put("pred.hermes.false_pos",
              static_cast<double>(ps.false_pos));
        d.put("pred.hermes.true_neg", static_cast<double>(ps.true_neg));
        d.put("pred.hermes.false_neg",
              static_cast<double>(ps.false_neg));
        d.put("pred.hermes.accuracy", ps.accuracy());
        d.put("pred.hermes.coverage", ps.coverage());
        d.put("hermes.probes_issued",
              static_cast<double>(hermes_probes_issued_));
        d.put("hermes.probes_suppressed",
              static_cast<double>(hermes_probes_suppressed_));
        d.put("hermes.probes_llc_hit",
              static_cast<double>(hermes_probes_llc_hit_));
        d.put("hermes.probes_useful",
              static_cast<double>(hermes_probes_useful_));
        d.put("hermes.probes_useless",
              static_cast<double>(hermes_probes_useless_));
        d.put("hermes.merged_demands",
              static_cast<double>(hermes_merged_demands_));
        d.put("hermes.saved_cycles",
              static_cast<double>(hermes_saved_cycles_));
        d.put("hermes.avg_head_start",
              hermes_merged_demands_
                  ? static_cast<double>(hermes_saved_cycles_)
                        / hermes_merged_demands_
                  : 0.0);
    }

    // Ring aggregates (Section 6.5).
    const RingStats &cr = control_ring_.stats();
    const RingStats &dr = data_ring_.stats();
    d.put("ring.control_msgs", static_cast<double>(cr.control_msgs));
    d.put("ring.data_msgs", static_cast<double>(dr.data_msgs));
    d.put("ring.control_emc_msgs",
          static_cast<double>(cr.control_emc_msgs));
    d.put("ring.data_emc_msgs", static_cast<double>(dr.data_emc_msgs));
    d.put("ring.avg_latency",
          (cr.delivered + dr.delivered)
              ? (cr.total_latency + dr.total_latency)
                    / (cr.delivered + dr.delivered)
              : 0.0);

    // Energy.
    ev.llc_accesses = llc_total_accesses_;
    ev.ring_control_hops = cr.control_msgs * 2;  // avg hops charged
    ev.ring_data_hops = dr.data_msgs * 2;
    ev.dram_activates = row_empty + row_conf;
    ev.dram_bursts = reads + writes;
    ev.dram_refreshes = refreshes;
    ev.total_cycles = now_ - warmup_end_cycle_;

    EnergyModel model(cfg_.energy, cfg_.num_cores,
                      static_cast<double>(cfg_.llc_slice_bytes)
                          * cfg_.num_cores / (1 << 20),
                      cfg_.dram.channels, cfg_.emc_enabled, cfg_.num_mcs);
    const EnergyBreakdown eb = model.compute(ev);
    d.put("energy.core_dynamic_mj", eb.core_dynamic_mj);
    d.put("energy.uncore_dynamic_mj", eb.uncore_dynamic_mj);
    d.put("energy.dram_dynamic_mj", eb.dram_dynamic_mj);
    d.put("energy.emc_dynamic_mj", eb.emc_dynamic_mj);
    d.put("energy.static_mj", eb.static_mj);
    d.put("energy.total_mj", eb.totalMj());

    // Sampled-simulation summary (populated by runSampled()).
    if (sampled_.windows > 0) {
        d.put("sampled.windows", static_cast<double>(sampled_.windows));
        d.put("sampled.ipc_mean", sampled_.ipc_mean);
        d.put("sampled.ipc_ci95", sampled_.ipc_ci95);
        d.put("sampled.dep_lat_mean", sampled_.dep_lat_mean);
        d.put("sampled.dep_lat_ci95", sampled_.dep_lat_ci95);
    }

    return d;
}

} // namespace emc
