/**
 * @file
 * System-level checkpoint/restore (DESIGN.md §7).
 *
 * Everything here walks state the components already know how to
 * serialize (their ser()/ckptSer()/ckptSave() hooks); this file owns
 * only the section layout, the two checkpoint levels, the warmup
 * drain and the checker reseeding that makes a restored machine pass
 * the full invariant suite.
 */

#include "sim/system.hh"

#include "common/log.hh"
#include "trace/record.hh"

namespace emc
{

// --------------------------------------------------------------------
// Payload layout
// --------------------------------------------------------------------

void
System::ckptPayload(ckpt::Ar &ar, ckpt::Level level,
                    std::vector<ckpt::Section> *toc)
{
    // Each section opens with an 8-byte marker so a load that drifts
    // out of alignment fails at the next boundary with a clear offset
    // instead of deserializing garbage.
    auto section = [&](const char *name, auto &&body) {
        ckpt::Section s;
        s.name = name;
        s.offset = ar.pos();
        ar.marker(name);
        body();
        s.length = ar.pos() - s.offset;
        if (toc)
            toc->push_back(s);
    };

    auto workload = [&] {
        // Per core: the (profile, generator seed) that rebuilt the
        // target's base memory, then the words dirtied since (the
        // load side reverts the target's own dirty words first).
        std::uint64_t cores = memories_.size();
        ar.io(cores);
        if (cores != memories_.size()) {
            throw ckpt::Error("checkpoint workload has "
                              + std::to_string(cores)
                              + " cores, target has "
                              + std::to_string(memories_.size()));
        }
        for (unsigned i = 0; i < memories_.size(); ++i) {
            const std::uint64_t own_seed = trace::generatorSeed(cfg_.seed, i);
            std::string profile = benchmark_names_[i];
            std::uint64_t seed = own_seed;
            ar.io(profile);
            ar.io(seed);
            if (profile != benchmark_names_[i] || seed != own_seed) {
                throw ckpt::Error(
                    "checkpoint core " + std::to_string(i)
                    + " was built from profile '" + profile + "' seed "
                    + std::to_string(seed) + ", target from '"
                    + benchmark_names_[i] + "' seed "
                    + std::to_string(own_seed));
            }
            ar.io(*memories_[i]);
        }
        for (auto &pt : page_tables_)
            ar.io(*pt);
        for (auto &p : programs_)
            p->ckptSer(ar);
    };

    if (level == ckpt::Level::kWarmup) {
        // Warmup level: only state meaningful across differing
        // EMC/prefetcher/DRAM configurations. Taken at a drained
        // quiescent point, so no transaction, event, ring or chain
        // state exists to capture.
        section("meta", [&] { ar.io(benchmark_names_); });
        section("workload", workload);
        section("warmcore", [&] {
            for (auto &c : cores_)
                c->serWarm(ar);
        });
        section("llc", [&] {
            for (auto &sl : slices_)
                ar.io(*sl);
        });
        return;
    }

    section("meta", [&] {
        ar.io(now_);
        ar.io(warmed_up_);
        ar.io(warmup_end_cycle_);
        ar.io(next_skip_check_);
        ar.io(skip_backoff_);
        ar.io(next_deep_check_);
        ar.io(traffic_);
        ar.io(finish_cycle_);
        ar.io(finish_snapshot_);
        ar.io(snapshotted_);
        ar.io(emc_miss_lines_);
        ar.io(prefetch_lines_);
        ar.io(phases_);
        ar.io(llc_demand_accesses_);
        ar.io(llc_demand_misses_);
        ar.io(llc_dep_misses_);
        ar.io(dep_misses_covered_by_pf_);
        ar.io(demand_hits_on_prefetch_);
        ar.io(emc_generated_misses_);
        ar.io(emc_bypass_wrong_);
        ar.io(llc_total_accesses_);
        ar.io(ideal_dep_hits_granted_);
        ar.io(hermes_probe_lines_);
        ar.io(hermes_probes_issued_);
        ar.io(hermes_probes_suppressed_);
        ar.io(hermes_probes_llc_hit_);
        ar.io(hermes_probes_useful_);
        ar.io(hermes_probes_useless_);
        ar.io(hermes_merged_demands_);
        ar.io(hermes_saved_cycles_);
    });
    section("workload", workload);
    section("cores", [&] {
        for (auto &c : cores_)
            ar.io(*c);
    });
    section("llc", [&] {
        for (auto &sl : slices_)
            ar.io(*sl);
        ar.io(slice_next_free_);
    });
    section("dram", [&] {
        for (auto &mcv : channels_) {
            for (auto &ch : mcv)
                ar.io(*ch);
        }
    });
    section("ring", [&] {
        ar.io(control_ring_);
        ar.io(data_ring_);
    });
    section("emc", [&] {
        for (auto &e : emcs_)
            ar.io(*e);
    });
    section("prefetch", [&] {
        if (prefetcher_)
            prefetcher_->ckptSer(ar);
        ar.io(fdp_);
        ar.io(outstanding_prefetch_lines_);
    });
    section("txns", [&] {
        ar.io(next_txn_);
        if (ar.saving()) {
            txns_.ckptSave(ar, [](ckpt::Ar &a, Txn &t) { a.io(t); });
        } else {
            txns_.ckptLoad(ar, [&](ckpt::Ar &a, Txn &t) {
                a.io(t);
                if (ck_txns_) {
                    // Reseed the lifecycle checker at the stage the
                    // transaction's own timestamps prove it reached
                    // (t_fill is set for merged fills whose onFill hook
                    // is still pending; filled->filled is legal).
                    unsigned stage = 0;
                    if (t.t_fill != kNoCycle)
                        stage = 3;
                    else if (t.t_dram_data != kNoCycle)
                        stage = 2;
                    else if (t.t_mc_enqueue != kNoCycle)
                        stage = 1;
                    ck_txns_->reseed(t.id, stage);
                }
            });
            if (ck_txns_)
                ck_txns_->setLastCreated(next_txn_ - 1);
        }
        ar.io(outstanding_demand_lines_);
        ar.io(pending_fills_);
    });
    section("chains", [&] {
        ar.io(next_msg_id_);
        ar.io(chains_in_flight_);
        ar.io(results_in_flight_);
        ar.io(lsq_msgs_);
    });
    section("events", [&] {
        if (ar.saving()) {
            events_.ckptSave(ar, [](ckpt::Ar &a, Cycle, Event &ev) {
                a.io(ev);
            });
        } else {
            events_.ckptLoad(ar, [&](ckpt::Ar &a, Cycle c, Event &ev) {
                a.io(ev);
                // Rebuild the event-queue checker's mirror. Every
                // surviving event was scheduled after the restored
                // now_, so the never-in-the-past check holds.
                if (ck_events_) {
                    ck_events_->onPush(*check_, c, c, now_,
                                       static_cast<unsigned>(ev.type),
                                       ev.token);
                }
            });
        }
    });

    if (ar.loading() && ck_retire_) {
        for (unsigned i = 0; i < cfg_.num_cores; ++i)
            ck_retire_->reseed(i, cores_[i]->ckptLastRetiredSeq());
    }
}

// --------------------------------------------------------------------
// Save
// --------------------------------------------------------------------

void
System::ckptRefuseIfObserved(const char *what) const
{
    if (tracer_ || streamer_) {
        throw ckpt::Error(
            std::string(what)
            + " refused: a tracer or stat streamer is attached and "
              "its file offsets are not restorable");
    }
    if (!cfg_.capture_prefix.empty()) {
        throw ckpt::Error(std::string(what)
                          + " refused: trace capture is active");
    }
}

std::vector<std::uint8_t>
System::saveCheckpointBytes(ckpt::Level level)
{
    if (level == ckpt::Level::kWarmup)
        return warmupCheckpointBytes();
    ckptRefuseIfObserved("checkpoint save");
    ckpt::Ar ar = ckpt::Ar::saver();
    ckpt::Header h;
    h.level = ckpt::Level::kFull;
    h.config_hash = ckpt::fullConfigHash(cfg_, benchmark_names_);
    ckptPayload(ar, ckpt::Level::kFull, &h.sections);
    return ckpt::assemble(h, ar.takeBytes());
}

void
System::saveCheckpoint(const std::string &path, ckpt::Level level)
{
    ckpt::writeFile(path, saveCheckpointBytes(level), ckpt_compress_);
}

void
System::ckptDrainForWarmup()
{
    drainInFlight();
}

void
System::drainInFlight()
{
    for (auto &c : cores_)
        c->pauseFetch(true);

    auto quiescent = [&] {
        for (const auto &c : cores_) {
            if (!c->ckptQuiescent())
                return false;
        }
        if (txns_.size() != 0 || events_.size() != 0)
            return false;
        if (control_ring_.pending() != 0 || data_ring_.pending() != 0)
            return false;
        for (const auto &mcv : channels_) {
            for (const auto &ch : mcv) {
                if (ch->busy())
                    return false;
            }
        }
        for (const auto &e : emcs_) {
            if (!e->idle())
                return false;
        }
        if (prefetcher_ && prefetcher_->queued() != 0)
            return false;
        return chains_in_flight_.empty() && results_in_flight_.empty()
               && lsq_msgs_.empty()
               && pending_fills_.empty()
               && outstanding_demand_lines_.empty()
               && outstanding_prefetch_lines_.empty();
    };

    // Every in-flight structure has bounded forward progress once
    // fetch is gated, so the drain is short; the cap turns a machine
    // wedge (a simulator bug) into a diagnosable error instead of a
    // hang.
    const Cycle limit = now_ + 2'000'000;
    while (!quiescent()) {
        if (now_ >= limit) {
            throw ckpt::Error("machine failed to drain to a quiescent "
                              "point for a warmup checkpoint");
        }
        tickOnce();
    }
}

std::vector<std::uint8_t>
System::warmupCheckpointBytes()
{
    ckptRefuseIfObserved("warmup checkpoint");
    if (cfg_.warmup_uops == 0) {
        throw ckpt::Error(
            "warmup checkpoint needs cfg.warmup_uops > 0");
    }
    if (warmed_up_) {
        throw ckpt::Error("warmup checkpoint must be taken before "
                          "measurement starts");
    }

    // Finish (or run) the warmup phase, then drain to quiescence.
    // This perturbs *this* System's subsequent timing (extra drain
    // cycles, gated fetch); savers are expected to be dedicated
    // warmup runs that are discarded afterwards.
    while (!allRetired(cfg_.warmup_uops) && now_ < cfg_.max_cycles) {
        maybeSkipIdle();
        tickOnce();
    }
    if (!allRetired(cfg_.warmup_uops))
        throw ckpt::Error("hit max_cycles before warmup completed");
    ckptDrainForWarmup();

    std::vector<std::uint8_t> bytes = warmupImageBytes();
    for (auto &c : cores_)
        c->pauseFetch(false);
    return bytes;
}

std::vector<std::uint8_t>
System::warmupImageBytes()
{
    ckpt::Ar ar = ckpt::Ar::saver();
    ckpt::Header h;
    h.level = ckpt::Level::kWarmup;
    h.config_hash = ckpt::warmupConfigHash(cfg_, benchmark_names_);
    ckptPayload(ar, ckpt::Level::kWarmup, &h.sections);
    return ckpt::assemble(h, ar.takeBytes());
}

// --------------------------------------------------------------------
// Restore
// --------------------------------------------------------------------

void
System::restoreCheckpointBytes(const std::vector<std::uint8_t> &bytes)
{
    ckptRefuseIfObserved("checkpoint restore");
    if (now_ != 0) {
        throw ckpt::Error(
            "checkpoint restore target has already run; restore into "
            "a freshly constructed System");
    }

    std::size_t payload_off = 0;
    const ckpt::Header h = ckpt::parseHeader(bytes, &payload_off);
    if (h.level == ckpt::Level::kFull) {
        if (h.config_hash != ckpt::fullConfigHash(cfg_, benchmark_names_)) {
            throw ckpt::Error(
                "full checkpoint configuration mismatch: a full-level "
                "restore requires an identically configured System");
        }
    } else {
        if (h.config_hash
            != ckpt::warmupConfigHash(cfg_, benchmark_names_)) {
            throw ckpt::Error(
                "warmup checkpoint incompatible: core count, LLC/L1/TLB "
                "geometry, seed or benchmarks differ");
        }
    }

    // parseHeader above already CRC-validated the payload; borrow the
    // payload bytes in place instead of re-parsing and copying the
    // whole image.
    ckpt::Ar ar = ckpt::Ar::loaderView(bytes.data() + payload_off,
                                       bytes.size() - payload_off);
    ckptPayload(ar, h.level, nullptr);
    if (!ar.exhausted())
        throw ckpt::Error("checkpoint payload has trailing bytes");

    if (h.level == ckpt::Level::kWarmup) {
        // The machine is warm and quiescent: start the measured phase
        // exactly as run() would after an in-process warmup.
        warmed_up_ = true;
        resetMeasurement();
    }
    if (check_)
        runDeepChecks();
}

void
System::restoreCheckpoint(const std::string &path)
{
    restoreCheckpointBytes(ckpt::readFile(path));
}

// --------------------------------------------------------------------
// In-run triggers
// --------------------------------------------------------------------

void
System::scheduleCheckpoint(const std::string &path, Cycle at,
                           ckpt::Level level)
{
    ckpt_path_ = path;
    ckpt_at_ = at;
    ckpt_level_ = level;
}

void
System::setAutosave(const std::string &path, Cycle interval)
{
    if (interval == 0) {
        autosave_path_.clear();
        autosave_interval_ = 0;
        next_autosave_ = kNoCycle;
        return;
    }
    autosave_path_ = path;
    autosave_interval_ = interval;
    next_autosave_ = now_ + interval;
}

void
System::maybeCheckpoint()
{
    if (!ckpt_path_.empty() && now_ >= ckpt_at_) {
        const std::string path = ckpt_path_;
        ckpt_path_.clear();
        ckpt_at_ = kNoCycle;
        saveCheckpoint(path, ckpt_level_);
    }
    if (!autosave_path_.empty() && now_ >= next_autosave_) {
        saveCheckpoint(autosave_path_, ckpt::Level::kFull);
        next_autosave_ = now_ + autosave_interval_;
    }
}

} // namespace emc
