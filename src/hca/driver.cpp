#include "hca/driver.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <set>

#include "hca/checkpoint.hpp"
#include "hca/verify_hook.hpp"
#include "mapper/mapper.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace hca::core {

const char* to_string(FailureCause cause) {
  switch (cause) {
    case FailureCause::kInvalidInput: return "invalid-input";
    case FailureCause::kDisconnectedFabric: return "disconnected-fabric";
    case FailureCause::kDeadlineExpired: return "deadline-expired";
    case FailureCause::kNoLegalMapping: return "no-legal-mapping";
    case FailureCause::kInternalError: return "internal-error";
  }
  return "unknown";
}

std::string HcaFailureReport::toString() const {
  std::string out = strCat("HcaFailure{", to_string(cause));
  if (site.level >= 0) {
    out += strCat(", level ", site.level, " [", strJoin(site.path, "."), "]");
  }
  out += strCat(": ", message);
  if (!escalationsTried.empty()) {
    out += strCat(" (escalations: ", strJoin(escalationsTried, ", "), ")");
  }
  out += "}";
  return out;
}

namespace {

/// A SEE result's frontier objectives as hex bit patterns, best first: the
/// `see` span's record of how the search scored its surviving states, which
/// two runs must reproduce bit for bit.
std::string frontierObjectives(const see::SeeResult& result) {
  std::string out;
  for (const see::FrontierSnapshot& state : result.frontier) {
    char bits[24];
    std::snprintf(bits, sizeof(bits), "%s%016llx", out.empty() ? "" : " ",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(state.state().objective())));
    out += bits;
  }
  return out;
}

/// Constraint tightening for problems whose children are leaf crossbars:
/// the in-neighbor budget of each sub-cluster is capped so the wires
/// funneled into it stay consumable by its CNs (each CN has only
/// `cnInWires` static selects, and intra-leaf chains consume selects too).
constexpr int kLeafParentMaxInNeighbors = 4;
/// Cap on hierarchical backtracking attempts (runner-up assignments tried
/// after a child sub-problem failed) across one attempt's problem tree.
constexpr int kBacktrackBudget = 256;

/// A !legal HcaResult carrying a structured report (kDegrade paths).
HcaResult failureResult(FailureCause cause, std::string message,
                        std::vector<std::string> escalations = {}) {
  HcaResult result;
  result.legal = false;
  result.failureReason = message;
  auto report = std::make_unique<HcaFailureReport>();
  report->cause = cause;
  report->message = std::move(message);
  report->escalationsTried = std::move(escalations);
  result.failure = std::move(report);
  return result;
}

/// --verify-each hook. `record` non-null runs the per-record (between
/// stages) checks on a just-mapped sub-problem; null runs the whole-result
/// checks on a legal attempt. A diagnostic means the driver corrupted its
/// own state somewhere upstream of this stage — a bug, so it throws
/// InternalError (which kDegrade folds into a kInternalError report).
void runVerifyEach(const ddg::Ddg& ddg, const machine::DspFabricModel& model,
                   const HcaOptions& options, const HcaResult& result,
                   const ProblemRecord* record) {
  PipelineVerifyRequest request;
  request.ddg = &ddg;
  request.model = &model;
  request.result = &result;
  request.record = record;
  request.checks = &options.verifyChecks;
  const PipelineVerifyOutcome outcome = runPipelineVerify(request);
  if (outcome.violations == 0) return;
  throw InternalError(
      strCat("verify-each found ", outcome.violations,
             " invariant violation(s) ",
             record != nullptr
                 ? strCat("after mapping sub-problem [",
                          strJoin(record->path, "."), "]")
                 : std::string("on the legal result"),
             ":\n", outcome.formatted));
}

/// Per-level metric name: `base + ".L" + level` (DESIGN.md section 4e).
std::string lvl(const char* base, int level) {
  return strCat(base, ".L", level);
}

}  // namespace

LevelMetrics::LevelMetrics(MetricsRegistry& m, int level)
    : cacheHits(&m.counter(lvl("cache.hits", level))),
      cacheMisses(&m.counter(lvl("cache.misses", level))),
      seeProblems(&m.counter(lvl("see.problems", level))),
      hcaBacktracks(&m.counter(lvl("hca.backtracks", level))),
      mapperFailures(&m.counter(lvl("mapper.failures", level))),
      mapperMaxValuesPerWire(
          &m.histogram(lvl("mapper.max_values_per_wire", level))),
      mapperWireUtilization(&m.histogram(lvl("mapper.wire_utilization", level))),
      mapperCopiesPerIli(&m.histogram(lvl("mapper.copies_per_ili", level))) {
  for (std::size_t i = 0; i < seeSeries.size(); ++i) {
    if (const char* metric = see::kSeeCounters[i].metric) {
      seeSeries[i] = &m.counter(lvl(metric, level));
    }
  }
}

void LevelMetrics::addSee(const see::SeeStats& s) const {
  for (std::size_t i = 0; i < seeSeries.size(); ++i) {
    if (seeSeries[i] != nullptr) {
      const see::SeeCounter& c = see::kSeeCounters[i];
      see::mergeCounter(c.merge, *seeSeries[i], s.*c.member);
    }
  }
}

HcaDriver::HcaDriver(machine::DspFabricModel model, HcaOptions options)
    : model_(std::move(model)),
      options_(options),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : Tracer::envForced()) {}

see::SeeOptions HcaDriver::profileOptions(int target, int profile) const {
  see::SeeOptions seeOptions = options_.see;
  seeOptions.weights.targetIi = target;
  switch (profile) {
    case 0: break;  // configured options
    case 1:
      seeOptions.chainGrouping = !seeOptions.chainGrouping;
      break;
    case 2:
      seeOptions.beamWidth = seeOptions.beamWidth * 2;
      seeOptions.candidateKeep = seeOptions.candidateKeep + 2;
      break;
    case 3:
      // Locality-heavy: copies and wiring budget dominate.
      seeOptions.weights.copyCount *= 3;
      seeOptions.weights.wiringSlack *= 2;
      seeOptions.weights.criticalPath *= 2;
      break;
    default:
      // Spread-heavy with deep routing.
      seeOptions.chainGrouping = !seeOptions.chainGrouping;
      seeOptions.weights.loadBalance *= 4;
      seeOptions.maxRouteHops += 2;
      seeOptions.beamWidth = seeOptions.beamWidth * 2;
      break;
  }
  applyMemoryBudget(seeOptions);
  return seeOptions;
}

void HcaDriver::applyMemoryBudget(see::SeeOptions& see) const {
  if (options_.memoryBudgetBytes <= 0) return;
  // Half the run budget is the cache's (see runAttempt); the other half
  // bounds each SEE solve's snapshot arenas. Per-attempt, not divided by
  // thread count: a budget that depended on parallelism would break the
  // serial/parallel identity guarantee.
  const std::int64_t arenaShare = std::max<std::int64_t>(
      1, options_.memoryBudgetBytes / 2);
  see.arenaBudgetBytes = see.arenaBudgetBytes > 0
                             ? std::min(see.arenaBudgetBytes, arenaShare)
                             : arenaShare;
}

HcaResult HcaDriver::runAttempt(const ddg::Ddg& ddg,
                                const std::vector<DdgNodeId>& rootWs,
                                int target, int profile,
                                const CancellationToken* cancel) const {
  const see::SeeOptions seeOptions = profileOptions(target, profile);
  HcaResult result;
  result.assignment.assign(static_cast<std::size_t>(ddg.numNodes()),
                           CnId::invalid());
  TraceSpan span(tracer_, "hca", "attempt");
  if (span.active()) {
    span.arg("target", std::to_string(target));
    span.arg("profile", std::to_string(profile));
  }
  const auto started = monotonicNow();
  // Resolve the per-level `.L<n>` metric names once: map nodes are stable,
  // so solve() bumps raw pointers instead of rebuilding names per problem.
  std::vector<LevelMetrics> levelMetrics;
  levelMetrics.reserve(static_cast<std::size_t>(model_.numLevels()));
  for (int level = 0; level < model_.numLevels(); ++level) {
    levelMetrics.emplace_back(result.metrics, level);
  }
  const std::vector<std::int64_t> heights =
      ddg.heights(model_.config().latency);
  // The attempt's own cache: no other attempt solves under its options, so
  // no other attempt could hit it (subproblem_cache.hpp). Under a memory
  // budget half the run's bytes bound it; the arenas have the other half.
  SubproblemCache cache(options_.memoryBudgetBytes > 0
                            ? std::max<std::int64_t>(
                                  1, options_.memoryBudgetBytes / 2)
                            : 0);
  const SolveContext ctx{seeOptions,
                         options_.enableSubproblemCache ? &cache : nullptr,
                         cancel,
                         tracer_,
                         &levelMetrics,
                         &heights};
  result.legal = solve(ddg, /*path=*/{}, rootWs, /*relayValues=*/{},
                       Boundary{}, ctx, result);
  if (ctx.cache != nullptr) {
    result.metrics.add("cache.hits", cache.hits());
    result.metrics.add("cache.misses", cache.misses());
    result.metrics.add("cache.evictions", cache.evictions());
    result.metrics.add("cache.entries", cache.entries());
    result.metrics.observe("cache.bytes",
                           static_cast<double>(cache.bytesUsed()));
  }
  const auto wallUs = microsBetween(started, monotonicNow());
  result.metrics.observe("attempt.wall_us", static_cast<double>(wallUs));
  result.metrics.add(result.legal ? "attempt.legal" : "attempt.illegal", 1);
  if (span.active()) span.arg("legal", result.legal ? "true" : "false");
  result.stats.outerAttempts = 1;
  if (result.legal) {
    result.stats.achievedTargetIi = target;
    // Every instruction must have landed on a CN.
    for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
      if (!ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) continue;
      HCA_CHECK(result.assignment[static_cast<std::size_t>(v)].valid(),
                "instruction " << v << " left unassigned by HCA");
    }
    result.reconfig.validate();
    // Recompute from the surviving records: the running value may include
    // pressure from backtracked (rolled-back) attempts.
    result.stats.maxWirePressure = 0;
    for (const auto& record : result.records) {
      result.stats.maxWirePressure =
          std::max(result.stats.maxWirePressure,
                   record->mapResult.maxValuesPerWire);
    }
    if (options_.verifyEach) {
      TraceSpan verifySpan(tracer_, "hca", "verify-result");
      runVerifyEach(ddg, model_, options_, result, nullptr);
    }
  }
  return result;
}

HcaResult HcaDriver::runSweep(const ddg::Ddg& ddg,
                              const std::vector<DdgNodeId>& rootWs, int iniMii,
                              int numThreads,
                              const CancellationToken* deadline,
                              const std::string& phase) const {
  CheckpointManager* ckpt = options_.checkpoint;
  const int numProfiles = std::max(1, options_.searchProfiles);
  const int numTargets = 1 + std::max(0, options_.targetIiSlack);
  const int numAttempts = numTargets * numProfiles;

  /// One (target, profile) attempt. A slot no dispatcher reached has none
  /// of the flags set and adds nothing to the sweep.
  struct AttemptSlot {
    HcaResult result;
    bool completed = false;  // runAttempt returned
    bool skipped = false;    // soft-cancelled before it started
    bool cancelled = false;  // returned illegal with its token cancelled
    /// Completed failure restored from a checkpoint (not re-run).
    const CheckpointAttempt* restored = nullptr;
    std::exception_ptr error;
  };
  std::vector<AttemptSlot> slots(static_cast<std::size_t>(numAttempts));
  std::vector<CancellationToken> tokens(static_cast<std::size_t>(numAttempts));
  // Every per-attempt token also observes the run-wide deadline (chained
  // before any slot can run).
  if (deadline != nullptr) {
    for (auto& token : tokens) token.chainTo(deadline);
  }
  // Lowest attempt index known to be legal: attempts above it can no
  // longer be the returned result (the sweep is ordered), so they are
  // soft-cancelled.
  std::atomic<int> bestLegal{numAttempts};

  const auto runSlot = [&](int i) {
    AttemptSlot& slot = slots[static_cast<std::size_t>(i)];
    CancellationToken& token = tokens[static_cast<std::size_t>(i)];
    if (ckpt != nullptr) {
      // A failure completed in a previous run: the SEE is deterministic and
      // the attempt's cache starts empty either way, so a re-run would
      // reproduce exactly the recorded counters.
      if (const CheckpointAttempt* r = ckpt->restoredAttempt(phase, i)) {
        slot.restored = r;
        return;
      }
    }
    if (token.cancelled() || bestLegal.load(std::memory_order_acquire) < i) {
      slot.skipped = true;
      return;
    }
    try {
      const int target = iniMii + i / numProfiles;
      const int profile = i % numProfiles;
      HcaResult result = runAttempt(ddg, rootWs, target, profile, &token);
      slot.cancelled = !result.legal && token.cancelled();
      if (result.legal) {
        int current = bestLegal.load(std::memory_order_acquire);
        while (i < current &&
               !bestLegal.compare_exchange_weak(current, i,
                                                std::memory_order_acq_rel)) {
        }
        for (int j = i + 1; j < numAttempts; ++j) {
          tokens[static_cast<std::size_t>(j)].cancel();
        }
      } else if (ckpt != nullptr && !slot.cancelled) {
        // Only a genuinely completed failure is durable progress: a
        // cancelled attempt's partial stats would poison the resume
        // identity, so it simply re-runs. Recording order follows
        // completion order; the manager's lock serializes the file writes.
        CheckpointAttempt done;
        done.phase = phase;
        done.index = i;
        done.target = target;
        done.profile = profile;
        done.failureReason = result.failureReason;
        done.failureSite = result.failureSite;
        done.stats = result.stats;
        ckpt->noteAttempt(std::move(done));
      }
      slot.result = std::move(result);
      slot.completed = true;
    } catch (...) {
      slot.error = std::current_exception();
    }
  };

  MetricsRegistry aggregateMetrics;
  if (numThreads <= 1) {
    // Inline, in index order: stop at the deadline, at the first legal
    // attempt and at the first error. Nothing past the stop is reached.
    // Once a later slot completes or is restored, an earlier failure can no
    // longer be the returned one: it keeps only what the aggregation reads.
    int heldFailure = -1;
    for (int i = 0; i < numAttempts; ++i) {
      if (deadline != nullptr && deadline->cancelled()) break;
      runSlot(i);
      const AttemptSlot& slot = slots[static_cast<std::size_t>(i)];
      if (slot.error != nullptr ||
          bestLegal.load(std::memory_order_acquire) == i) {
        break;
      }
      if (!slot.completed && slot.restored == nullptr) continue;
      if (heldFailure >= 0) {
        HcaResult& old = slots[static_cast<std::size_t>(heldFailure)].result;
        old.assignment = {};
        old.relays = {};
        old.reconfig = {};
        old.records.clear();
        old.records.shrink_to_fit();
      }
      heldFailure = slot.completed ? i : -1;
    }
  } else {
    ThreadPool pool(numThreads);
    for (int i = 0; i < numAttempts; ++i) pool.submit([&, i] { runSlot(i); });
    pool.wait();
    // Pool telemetry: how busy the portfolio kept the workers.
    const ThreadPool::PoolStats ps = pool.stats();
    aggregateMetrics.add("pool.threads", pool.size());
    aggregateMetrics.add("pool.tasks", ps.tasksExecuted);
    aggregateMetrics.add("pool.max_queue_depth", ps.maxQueueDepth);
    aggregateMetrics.histogram("pool.task_wait_us").merge(ps.taskWaitUs);
    aggregateMetrics.histogram("pool.task_run_us").merge(ps.taskRunUs);
  }

  // The lowest legal index wins (numAttempts = none). Only errors below it
  // propagate: an ordered sweep never reaches the attempts above its winner.
  const int winner = bestLegal.load(std::memory_order_acquire);
  for (int i = 0; i < winner; ++i) {
    if (slots[static_cast<std::size_t>(i)].error != nullptr) {
      std::rethrow_exception(slots[static_cast<std::size_t>(i)].error);
    }
  }

  HcaStats aggregate;
  for (int i = 0; i < numAttempts; ++i) {
    AttemptSlot& slot = slots[static_cast<std::size_t>(i)];
    if (i == winner) continue;
    if (slot.restored != nullptr) {
      aggregate.merge(slot.restored->stats);
      continue;
    }
    if (slot.skipped) {
      ++aggregate.attemptsCancelled;
      continue;
    }
    if (!slot.completed) continue;  // unreached, or errored past the winner
    aggregate.merge(slot.result.stats);
    aggregateMetrics.merge(slot.result.metrics);
    if (slot.cancelled) ++aggregate.attemptsCancelled;
  }

  if (winner < numAttempts) {
    HcaResult result = std::move(slots[static_cast<std::size_t>(winner)].result);
    result.stats.merge(aggregate);
    result.metrics.merge(aggregateMetrics);
    return result;
  }
  // No attempt succeeded: the failure of the last attempt that completed
  // or was restored — reason, wire pressure and failure site all from
  // that one attempt — with the aggregate counters (achievedTargetIi = 0
  // means "none").
  HcaResult best;
  int lastMaxWire = 0;
  for (int i = numAttempts - 1; i >= 0; --i) {
    AttemptSlot& last = slots[static_cast<std::size_t>(i)];
    if (last.restored != nullptr) {
      best.failureReason = last.restored->failureReason;
      best.failureSite = last.restored->failureSite;
      lastMaxWire = last.restored->stats.maxWirePressure;
      break;
    }
    if (last.completed) {
      best = std::move(last.result);
      lastMaxWire = best.stats.maxWirePressure;
      break;
    }
  }
  if (best.failureReason.empty()) {
    // The deadline fired before the first attempt even started.
    best.failureReason = "deadline expired before any outer attempt completed";
  }
  best.stats = aggregate;
  best.stats.maxWirePressure = lastMaxWire;
  best.stats.achievedTargetIi = 0;
  best.metrics = std::move(aggregateMetrics);
  return best;
}

HcaResult HcaDriver::run(const ddg::Ddg& ddg) const {
  const bool degrade = options_.failurePolicy == FailurePolicy::kDegrade;

  // A fault set that disconnects the fabric can never be mapped onto;
  // refuse it up front instead of sweeping to an opaque failure.
  if (model_.hasFaults()) {
    const std::string viability = model_.faultViabilityError();
    if (!viability.empty()) {
      HCA_REQUIRE(degrade,
                  "fault set leaves the fabric disconnected: " << viability);
      return failureResult(
          FailureCause::kDisconnectedFabric,
          strCat("fault set leaves the fabric disconnected: ", viability));
    }
  }

  if (!degrade) return runChecked(ddg);
  try {
    return runChecked(ddg);
  } catch (const InvalidArgumentError& e) {
    return failureResult(FailureCause::kInvalidInput, e.what());
  } catch (const Error& e) {
    return failureResult(FailureCause::kInternalError, e.what());
  } catch (const std::exception& e) {
    return failureResult(FailureCause::kInternalError, e.what());
  }
}

HcaResult HcaDriver::runChecked(const ddg::Ddg& ddg) const {
  TraceSpan span(tracer_, "hca", "run");
  ddg.validate();

  // Base target II for the cost function (Section 4.2): clusters below
  // iniMII are never the bottleneck, so the search may pack them for
  // locality. Only surviving CNs contribute issue slots.
  int iniMii = options_.see.weights.targetIi;
  if (iniMii <= 1) {
    const auto stats = ddg.stats();
    const int issue = (stats.numInstructions + model_.aliveCns() - 1) /
                      model_.aliveCns();
    const int mem = (stats.numMemOps + model_.config().dmaSlots - 1) /
                    model_.config().dmaSlots;
    iniMii = static_cast<int>(std::max<std::int64_t>(
        {ddg.miiRec(model_.config().latency), issue, mem, 1}));
  }

  std::vector<DdgNodeId> rootWs;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) rootWs.emplace_back(v);
  }

  CancellationToken deadlineToken;
  const CancellationToken* deadline = nullptr;
  if (options_.deadlineMs > 0) {
    deadlineToken.setDeadline(monotonicNow() +
                              std::chrono::milliseconds(options_.deadlineMs));
    deadline = &deadlineToken;
  }
  if (options_.externalCancel != nullptr) {
    // SIGINT/SIGTERM (or a batch driver's shutdown) unwinds exactly like a
    // deadline expiry: the run stops at the next poll with best-so-far.
    deadlineToken.chainTo(options_.externalCancel);
    deadline = &deadlineToken;
  }
  if (options_.checkpoint != nullptr) {
    // Hard identity gate: resuming against a different DDG, machine,
    // fault set or result-affecting option set throws kWrongRun.
    options_.checkpoint->bindRun(runFingerprint(ddg, model_, options_),
                                 iniMii);
  }
  if (span.active()) span.arg("iniMii", std::to_string(iniMii));
  return runLadder(ddg, rootWs, iniMii, deadline, "");
}

HcaResult HcaDriver::runLadder(const ddg::Ddg& ddg,
                               const std::vector<DdgNodeId>& rootWs,
                               int iniMii,
                               const CancellationToken* deadline,
                               const std::string& scope) const {
  const bool degrade = options_.failurePolicy == FailurePolicy::kDegrade;
  const auto expired = [&] {
    return deadline != nullptr && deadline->cancelled();
  };
  std::vector<std::string> escalations;

  // Rung 1 — the primary sweep: smallest target II first (the
  // modulo-scheduling II search applied to clusterization), a few
  // heuristic profiles per target — serially, or as a parallel portfolio
  // with deterministic selection.
  const int numAttempts = (1 + std::max(0, options_.targetIiSlack)) *
                          std::max(1, options_.searchProfiles);
  const int threads =
      std::min(ThreadPool::effectiveThreads(options_.numThreads,
                                            options_.allowOversubscribe),
               numAttempts);
  HcaResult best;
  {
    TraceSpan rung(tracer_, "hca", "rung:primary-sweep");
    const std::string phase = scope + "sweep";
    best = runSweep(ddg, rootWs, iniMii, threads, deadline, phase);
  }
  best.metrics.add("ladder.rung.primary", 1);
  if (best.legal) return best;

  // Rung 2 (kDegrade) — retry with backoff: a widened beam and deeper
  // candidate keep explore assignments the primary profiles pruned.
  if (degrade && !expired()) {
    escalations.push_back("widened-beam retry (beam x2, keep +4)");
    best.metrics.add("ladder.rung.beam_backoff", 1);
    TraceSpan rung(tracer_, "hca", "rung:beam-backoff");
    HcaOptions wider = options_;
    wider.see.beamWidth *= 2;
    wider.see.candidateKeep += 4;
    const HcaDriver widened(model_, wider);
    // The rung's attempts record under their own phase label (rungs reuse
    // attempt indices 0..N).
    const std::string phase = scope + "beam-backoff";
    HcaResult retry =
        widened.runSweep(ddg, rootWs, iniMii, threads, deadline, phase);
    if (retry.legal) {
      retry.stats.merge(best.stats);
      retry.metrics.merge(best.metrics);
      retry.fallbackUsed = "beam-backoff";
      return retry;
    }
    best.stats.merge(retry.stats);
    best.metrics.merge(retry.metrics);
  }

  // Rung 3 — degraded-bandwidth fallback: solve on a copy of the machine
  // whose MUX capacities are clamped to 2 (faults carried over). The
  // produced wiring uses a subset of the real surviving wires, so the
  // result is valid (if slow) on the real fabric. Skipped when the faults
  // leave the *degraded* fabric disconnected — the real one may still be
  // fine with its wider MUXes. Runs under both policies, and only on a
  // fabric wider than the degraded one: that stops the nested ladder,
  // whose fabric is already clamped, from recursing.
  if (!expired() && (model_.config().n > 2 || model_.config().m > 2 ||
                     model_.config().k > 2)) {
    machine::DspFabricConfig degradedConfig = model_.config();
    degradedConfig.n = std::min(degradedConfig.n, 2);
    degradedConfig.m = std::min(degradedConfig.m, 2);
    degradedConfig.k = std::min(degradedConfig.k, 2);
    machine::DspFabricModel degradedModel(degradedConfig, model_.faults());
    if (!degradedModel.hasFaults() ||
        degradedModel.faultViabilityError().empty()) {
      escalations.push_back("degraded-bandwidth re-run (N=M=K=2)");
      best.metrics.add("ladder.rung.degraded_bandwidth", 1);
      TraceSpan rung(tracer_, "hca", "rung:degraded-bandwidth");
      HcaOptions degradedOptions = options_;
      degradedOptions.failurePolicy = FailurePolicy::kStrict;
      degradedOptions.targetIiSlack = std::max(options_.targetIiSlack, 6);
      // Scope the nested ladder's attempts so they never collide with this
      // ladder's in the file.
      const HcaDriver degraded(std::move(degradedModel), degradedOptions);
      HcaResult result = degraded.runLadder(ddg, rootWs, iniMii, deadline,
                                            scope + "degraded-bandwidth/");
      if (result.legal) {
        result.stats.merge(best.stats);
        result.metrics.merge(best.metrics);
        result.fallbackUsed = "degraded-bandwidth";
        return result;
      }
      best.stats.merge(result.stats);
      best.metrics.merge(result.metrics);
    }
  }

  // Every rung exhausted (or the deadline cut the ladder short).
  best.metrics.add("ladder.escalations",
                   static_cast<std::int64_t>(escalations.size()));
  if (degrade) {
    auto report = std::make_unique<HcaFailureReport>();
    report->cause = expired() ? FailureCause::kDeadlineExpired
                              : FailureCause::kNoLegalMapping;
    report->site = best.failureSite;
    report->message = best.failureReason;
    report->escalationsTried = std::move(escalations);
    best.failure = std::move(report);
  }
  return best;
}

bool HcaDriver::solve(const ddg::Ddg& ddg, const std::vector<int>& path,
                      std::vector<DdgNodeId> workingSet,
                      std::vector<ValueId> relayValues,
                      const Boundary& boundary, const SolveContext& ctx,
                      HcaResult& result) const {
  if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
    result.failureReason = "attempt cancelled";
    return false;
  }
  const int level = static_cast<int>(path.size());
  const bool leaf = level == model_.numLevels() - 1;
  const machine::LevelSpec spec = model_.levelSpec(level);

  TraceSpan span(ctx.tracer, "hca", "solve");
  if (span.active()) {
    span.arg("path", strJoin(path, "."));
    span.arg("level", std::to_string(level));
  }

  ProblemRecord record;
  record.path = path;
  record.level = level;
  record.leaf = leaf;
  record.workingSet = workingSet;
  record.relayValues = relayValues;

  // --- Pattern graph with boundary nodes (Section 4.1, Fig. 10b). ---------
  // On a faulty machine the PG carries the sub-problem's surviving
  // resources (dead children marked, wire caps clamped); fault-free paths
  // get the identical per-level graph as before.
  record.pg = model_.patternGraphAt(path);
  see::SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = std::move(workingSet);
  problem.relayValues = std::move(relayValues);
  problem.constraints = model_.constraints(level);
  // Keep the next level solvable: a leaf's CNs can only absorb a handful
  // of incoming wires (Section 4.1: "the constraints must ensure that the
  // module Mapper will be able to map PG onto the Machine Model").
  const bool childrenAreLeaves = level + 1 == model_.numLevels() - 1;
  if (childrenAreLeaves && problem.constraints.maxInNeighbors > 0) {
    problem.constraints.maxInNeighbors = std::min(
        problem.constraints.maxInNeighbors, kLeafParentMaxInNeighbors);
  }
  problem.latency = model_.config().latency;
  problem.heights = ctx.heights;
  problem.inWiresPerCluster = spec.inWires;
  problem.outWiresPerCluster = spec.outWires;

  for (const auto& wire : boundary.inputs) {
    const ClusterId in = record.pg.addInputNode(
        wire.values, strCat("in", wire.wire));
    for (const ValueId v : wire.values) {
      problem.valueSources.emplace(v, in);
    }
  }
  for (const auto& wire : boundary.outputs) {
    const ClusterId out =
        record.pg.addOutputNode(strCat("out", wire.wire), wire.values);
    problem.outputRequirements.push_back({out, wire.values});
  }
  record.pg.connectBoundaryNodes();
  problem.pg = &record.pg;

  // --- Single-level cluster assignment (Section 4.2), memoized. ------------
  // The cache key covers everything the (deterministic) SEE result depends
  // on except the fixed DDG; see subproblem_cache.hpp. A hit replays the
  // recorded result — including its stats, so aggregate counters stay
  // byte-identical with the cache off.
  std::shared_ptr<const see::SeeResult> cacheEntry;
  std::string cacheKey;
  if (ctx.cache != nullptr) {
    cacheKey = subproblemKey(record.pg, problem.constraints, problem.latency,
                             spec.inWires, spec.outWires, boundary.inputs,
                             boundary.outputs, problem.workingSet,
                             problem.relayValues, ctx.seeOptions);
    cacheEntry = ctx.cache->lookup(cacheKey);
  }
  see::SeeResult freshResult;
  const see::SeeResult* seePtr = nullptr;
  const LevelMetrics& lm = (*ctx.levels)[static_cast<std::size_t>(level)];
  if (cacheEntry != nullptr) {
    ++result.stats.cacheHits;
    ++*lm.cacheHits;
    if (span.active()) span.arg("cache", "hit");
    seePtr = cacheEntry.get();
  } else {
    TraceSpan seeSpan(ctx.tracer, "hca", "see");
    const see::SpaceExplorationEngine engine(ctx.seeOptions);
    freshResult = engine.run(problem, ctx.cancel);
    if (seeSpan.active()) {
      seeSpan.arg("states", std::to_string(freshResult.stats.statesExplored));
      seeSpan.arg("legal", freshResult.legal ? "true" : "false");
      seeSpan.arg("objectives", frontierObjectives(freshResult));
    }
    // Never cache a search aborted by cancellation: its "illegal" verdict
    // is an artifact of the abort, not a property of the sub-problem. A
    // legal result is always a complete computation and safe to cache.
    const bool aborted = !freshResult.legal && ctx.cancel != nullptr &&
                         ctx.cancel->cancelled();
    if (ctx.cache != nullptr && !aborted) {
      ++result.stats.cacheMisses;
      ++*lm.cacheMisses;
      cacheEntry = ctx.cache->insert(cacheKey, std::move(freshResult));
      seePtr = cacheEntry.get();
    } else {
      seePtr = &freshResult;
    }
  }
  const see::SeeResult& seeResult = *seePtr;

  record.seeStats = seeResult.stats;
  ++result.stats.problemsSolved;
  result.stats.addSee(seeResult.stats);
  // Per-level search-pressure series (cache hits replay the recorded
  // SeeStats, so the counters are byte-identical with the cache on or off).
  ++*lm.seeProblems;
  lm.addSee(seeResult.stats);

  if (!seeResult.legal) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      result.failureReason = "attempt cancelled";
      return false;
    }
    result.failureReason = strCat("sub-problem [", strJoin(path, "."),
                                  "] (level ", level,
                                  "): ", seeResult.failureReason);
    result.failureSite = {level, path};
    return false;
  }

  // --- Try the frontier's assignments in order; backtrack on deep failure.
  // Snapshots are read by working-set position.
  HCA_CHECK(seeResult.workingSet == record.workingSet,
            "SEE result of sub-problem [" << strJoin(path, ".")
                                          << "] is for another working set");
  const auto clusters = record.pg.clusterNodes();
  const int numAlternatives = std::min<int>(
      kMaxAlternatives, static_cast<int>(seeResult.frontier.size()));
  std::string lastFailure;
  for (int alt = 0; alt < numAlternatives; ++alt) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      result.failureReason = "attempt cancelled";
      return false;
    }
    if (alt > 0) {
      if (result.stats.backtrackAttempts >= kBacktrackBudget) break;
      ++result.stats.backtrackAttempts;
      ++*lm.hcaBacktracks;
    }
    const see::FlatSolution& solution =
        seeResult.frontier[static_cast<std::size_t>(alt)].state();

    // Snapshot for rollback.
    const std::size_t savedRecords = result.records.size();
    const std::size_t savedSettings = result.reconfig.settings.size();
    const std::size_t savedRelays = result.relays.size();

    auto attempt = std::make_unique<ProblemRecord>(record);
    attempt->flow = solution.copyFlow();
    attempt->clusterSummaries.clear();
    for (const ClusterId c : clusters) {
      ClusterSummary summary;
      summary.cluster = c;
      summary.instructions = solution.usage(c).instructions;
      summary.aluOps = solution.usage(c).alu;
      summary.agOps = solution.usage(c).ag;
      summary.distinctValuesIn = solution.distinctValuesIn(c);
      summary.distinctValuesOut = solution.distinctValuesOut(c);
      attempt->clusterSummaries.push_back(summary);
    }
    const auto childOf = [&](ClusterId c) {
      const auto it = std::find(clusters.begin(), clusters.end(), c);
      HCA_CHECK(it != clusters.end(), "assignment to a non-cluster node");
      return static_cast<int>(it - clusters.begin());
    };
    attempt->wsChild.clear();
    attempt->wsChild.reserve(attempt->workingSet.size());
    for (std::size_t i = 0; i < attempt->workingSet.size(); ++i) {
      attempt->wsChild.push_back(childOf(solution.clusterAt(i)));
    }
    attempt->relayChild.clear();
    attempt->relayChild.reserve(attempt->relayValues.size());
    for (std::size_t i = 0; i < attempt->relayValues.size(); ++i) {
      attempt->relayChild.push_back(childOf(solution.relayCluster(i)));
    }

    // --- Map copies onto wires, derive the children's ILIs (Fig. 9/11). ----
    const mapper::MapperInput mapInput = mapper::faultAwareMapperInput(
        model_, path, attempt->pg, attempt->flow);
    const mapper::Mapper mapperPass;
    {
      TraceSpan mapSpan(ctx.tracer, "hca", "mapper");
      if (mapSpan.active()) mapSpan.arg("alt", std::to_string(alt));
      attempt->mapResult = mapperPass.map(mapInput);
      if (mapSpan.active()) {
        mapSpan.arg("legal", attempt->mapResult.legal ? "true" : "false");
      }
    }
    if (!attempt->mapResult.legal) {
      ++*lm.mapperFailures;
      lastFailure = strCat("sub-problem [", strJoin(path, "."), "] (level ",
                           level, ") mapper: ",
                           attempt->mapResult.failureReason);
      continue;
    }
    // Copy-flow distribution of this level's wiring: serialization pressure
    // per mapped problem, copies funneled into each child's ILI, and the
    // fraction of the surviving wire budget actually driven.
    lm.mapperMaxValuesPerWire->add(
        static_cast<double>(attempt->mapResult.maxValuesPerWire));
    if (attempt->mapResult.wiresAvailable > 0) {
      lm.mapperWireUtilization->add(
          static_cast<double>(attempt->mapResult.wiresUsed) /
          static_cast<double>(attempt->mapResult.wiresAvailable));
    }
    for (const mapper::Ili& ili : attempt->mapResult.ilis) {
      std::int64_t copies = 0;
      for (const auto& wire : ili.inputs) {
        copies += static_cast<std::int64_t>(wire.values.size());
      }
      lm.mapperCopiesPerIli->add(static_cast<double>(copies));
    }
    result.stats.maxWirePressure = std::max(
        result.stats.maxWirePressure, attempt->mapResult.maxValuesPerWire);
    for (const auto& setting : attempt->mapResult.reconfig.settings) {
      result.reconfig.settings.push_back(setting);
    }

    // Between-stages verification: the record now carries its SEE solution
    // and mapper output, so any per-record invariant it breaks was broken
    // by *this* stage — fail loudly here instead of at the end of the run.
    if (options_.verifyEach) {
      TraceSpan verifySpan(ctx.tracer, "hca", "verify-record");
      runVerifyEach(ddg, model_, options_, result, attempt.get());
    }

    if (leaf) {
      // Children are computation nodes: record final placements.
      for (std::size_t i = 0; i < attempt->workingSet.size(); ++i) {
        auto cnPath = path;
        cnPath.push_back(attempt->wsChild[i]);
        const CnId cn = model_.cnIdOf(cnPath);
        HCA_CHECK(model_.cnAlive(cn),
                  "SEE placed instruction "
                      << attempt->workingSet[i].value() << " on dead CN "
                      << to_string(cn));
        result.assignment[attempt->workingSet[i].index()] = cn;
      }
      for (std::size_t i = 0; i < attempt->relayValues.size(); ++i) {
        auto cnPath = path;
        cnPath.push_back(attempt->relayChild[i]);
        result.relays.push_back(
            RelayPlacement{attempt->relayValues[i], model_.cnIdOf(cnPath)});
      }
      result.records.push_back(std::move(attempt));
      return true;
    }

    // --- Recurse into the children. ----------------------------------------
    const int numChildren = spec.children;
    std::vector<std::vector<DdgNodeId>> childWs(
        static_cast<std::size_t>(numChildren));
    for (std::size_t i = 0; i < attempt->workingSet.size(); ++i) {
      childWs[static_cast<std::size_t>(attempt->wsChild[i])].push_back(
          attempt->workingSet[i]);
    }
    // A child relays every value that leaves it without being produced by
    // its working set (parked parent relays and route-allocated
    // pass-throughs created at this level).
    std::vector<std::vector<ValueId>> childRelays(
        static_cast<std::size_t>(numChildren));
    for (int i = 0; i < numChildren; ++i) {
      std::set<ValueId> produced;
      for (const DdgNodeId n : childWs[static_cast<std::size_t>(i)]) {
        produced.insert(ValueId(n.value()));
      }
      std::set<ValueId> seen;
      for (const auto& wire :
           attempt->mapResult.ilis[static_cast<std::size_t>(i)].outputs) {
        for (const ValueId v : wire.values) {
          if (produced.count(v) == 0 && seen.insert(v).second) {
            childRelays[static_cast<std::size_t>(i)].push_back(v);
          }
        }
      }
    }

    if (Logger::instance().enabled(LogLevel::kDebug)) {
      for (int i = 0; i < numChildren; ++i) {
        for (const auto& wire :
             attempt->mapResult.ilis[static_cast<std::size_t>(i)].outputs) {
          if (wire.values.size() < 4) continue;
          std::string vals;
          for (const ValueId v : wire.values) {
            vals += std::to_string(v.value()) + " ";
          }
          HCA_DEBUG("problem [" << strJoin(path, ".") << "] child " << i
                                << " fat out wire " << wire.wire << ": "
                                << vals);
        }
      }
    }
    const ProblemRecord* recordPtr = attempt.get();
    result.records.push_back(std::move(attempt));

    bool childrenOk = true;
    for (int i = 0; i < numChildren; ++i) {
      Boundary childBoundary;
      childBoundary.inputs =
          recordPtr->mapResult.ilis[static_cast<std::size_t>(i)].inputs;
      childBoundary.outputs =
          recordPtr->mapResult.ilis[static_cast<std::size_t>(i)].outputs;
      auto childPath = path;
      childPath.push_back(i);
      if (!solve(ddg, childPath, childWs[static_cast<std::size_t>(i)],
                 childRelays[static_cast<std::size_t>(i)], childBoundary,
                 ctx, result)) {
        childrenOk = false;
        break;
      }
    }
    if (childrenOk) return true;

    // Roll back this attempt's contributions and try the next alternative.
    lastFailure = result.failureReason;
    result.records.resize(savedRecords);
    result.reconfig.settings.resize(savedSettings);
    result.relays.resize(savedRelays);
    for (const DdgNodeId n : problem.workingSet) {
      result.assignment[n.index()] = CnId::invalid();
    }
  }

  result.failureReason = lastFailure.empty()
                             ? strCat("sub-problem [", strJoin(path, "."),
                                      "] exhausted alternatives")
                             : lastFailure;
  // A failure below this problem, met while backtracking, keeps its site.
  if (result.failureSite.level < 0) result.failureSite = {level, path};
  return false;
}

}  // namespace hca::core
