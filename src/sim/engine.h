// The lock-step synchronous execution engine (paper §3).
//
// Per round the engine: (1) collects each alive process's messages, (2) asks
// the adversary which processes crash this round and which recipients still
// receive each victim's final messages, (3) delivers the surviving messages,
// and (4) hands every alive process its inbox. A process that crashes stops
// forever; a process that halts (decided and left the protocol) likewise
// sends and receives nothing afterwards — other processes observe only
// silence in both cases, exactly as in the paper's model.
//
// Intra-round parallelism: within one round, on_send across alive processes
// and on_receive across recipients are independent deterministic state
// transitions (each touches only its own process's state) — the same
// lock-step structure synchronous renaming protocols exploit. With
// EngineConfig::num_threads > 1 the engine fans both phases out over a
// reusable util::ThreadPool under every scheduler; the adversary step, the
// delivery-tick bookkeeping and on_timeout between them stay serial.
// Every observable (inbox contents and order, outcomes, metrics) is
// bit-identical for every thread count — see docs/perf.md for the argument
// and tests/engine_parallel_test.cpp / golden_run_test for the executable
// form.
//
// Delivery timing: the engine is parameterized by a sim::DeliveryScheduler
// (sim/scheduler.h) and runs every round through step() under every
// scheduler. step() keeps two counters, the protocol round and the virtual
// tick. After the sends it asks the scheduler for each non-empty outbox's
// delivery tick; the round completes at the latest of them, and the tick
// jumps there. Lock-step timing delivers every batch one tick after it is
// sent, so the two counters stay equal; a delay scheduler (bounded-delay,
// GST) lets the tick run ahead. See docs/architecture.md § scheduler.
//
// Delivery classes: a round's alive recipients are grouped by what they
// receive beyond the shared broadcast plan (deliver_round). Each worker
// assembles one inbox per class and registers it with its DecodeCache, so
// a crash-subset or Byzantine round builds one inbox and one label index
// per class instead of one per recipient.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/adversary.h"
#include "sim/decode_cache.h"
#include "sim/scheduler.h"
#include "sim/metrics.h"
#include "sim/process.h"
#include "sim/trace.h"
#include "sim/types.h"
#include "util/thread_pool.h"

namespace bil::sim {

/// Static run parameters.
struct EngineConfig {
  /// n — number of processes; must match the process vector's size.
  std::uint32_t num_processes = 0;
  /// t — adversary's crash budget; must be < num_processes (the paper's
  /// t < n assumption: at least one process survives).
  std::uint32_t max_crashes = 0;
  /// f — adversary's Byzantine budget: the maximum number of distinct
  /// senders whose wire traffic may ever be rewritten (Adversary::corrupt);
  /// must be < num_processes. A sender is charged against the budget the
  /// first round it is corrupted and stays Byzantine for the rest of the
  /// run (its outcome is flagged; validate_renaming excuses it). 0 (the
  /// default) forbids corruption entirely — the crash-only model.
  std::uint32_t max_byzantine = 0;
  /// Safety cap; 0 selects the documented default 16·n + 64, far above the
  /// deterministic O(n)-round termination bound (paper Lemma 11), so
  /// hitting the cap means a bug, not bad luck. It caps virtual-time
  /// *ticks*, which equal rounds under lock-step timing, so a scheduler
  /// that starves delivery (delays a batch past the cap) ends the run
  /// cleanly with completed = false instead of looping forever.
  RoundNumber max_rounds = 0;
  /// Intra-round executor threads for the send/receive fan-outs: 1 (the
  /// default) runs every phase serially, k > 1 shards processes over k
  /// threads, 0 resolves to one thread per hardware thread. The run's
  /// result is bit-identical for every value, under every scheduler. When
  /// a trace sink is attached the engine falls back to serial execution
  /// regardless (trace events must stream in id order).
  std::uint32_t num_threads = 1;
  /// Optional execution trace; not owned, may be null. Must outlive the
  /// engine.
  TraceSink* trace = nullptr;
};

/// Per-process outcome of a run.
struct ProcessOutcome {
  bool decided = false;
  std::uint64_t name = 0;
  RoundNumber decide_round = 0;

  bool crashed = false;
  RoundNumber crash_round = 0;

  bool halted = false;
  RoundNumber halt_round = 0;

  /// The adversary rewrote this sender's wire traffic in some round. The
  /// process object itself ran honest code (see sim::CorruptionPlan), but
  /// to the rest of the system it behaved arbitrarily, so — like a crashed
  /// process — it owes nothing: validate_renaming skips it.
  bool byzantine = false;

  /// A malformed payload escaped this process's on_receive as a WireError;
  /// the engine isolated the process instead of aborting the run. An honest
  /// process being quarantined is a protocol bug (its validation layer
  /// should have swallowed the garbage), and validate_renaming fails on it.
  bool quarantined = false;
  RoundNumber quarantine_round = 0;

  bool operator==(const ProcessOutcome&) const = default;
};

/// Result of Engine::run.
struct RunResult {
  /// True when every non-crashed process halted before the round cap.
  bool completed = false;
  /// Number of rounds executed (rounds are numbered 0..rounds-1).
  RoundNumber rounds = 0;
  std::vector<ProcessOutcome> outcomes;
  Metrics metrics;

  /// Round in which the last correct process decided (the run's latency).
  /// Requires completed and at least one correct process.
  [[nodiscard]] RoundNumber last_decide_round() const;
};

/// Executes one run. Single-shot: construct, run, inspect.
class Engine {
 public:
  /// Takes ownership of the processes (one per id, in id order) and of the
  /// adversary. `adversary` may be null, meaning no failures. Equivalent to
  /// the scheduler constructor with a SynchronousScheduler wrapping
  /// `adversary` — the lock-step model is the default special case.
  Engine(EngineConfig config,
         std::vector<std::unique_ptr<ProcessBase>> processes,
         std::unique_ptr<Adversary> adversary);

  /// Scheduler form: the scheduler decides when every message batch is
  /// delivered (sim/scheduler.h). A synchronous scheduler carries the
  /// crash/corruption adversary and is bit-identical to the adversary
  /// constructor; any other scheduler is crash-free by contract (the config
  /// must carry zero crash and Byzantine budgets).
  Engine(EngineConfig config,
         std::vector<std::unique_ptr<ProcessBase>> processes,
         std::unique_ptr<DeliveryScheduler> scheduler);

  /// A literal `nullptr` third argument means "no adversary, lock-step
  /// scheduling" — the historical idiom throughout the tests. Spelled out
  /// so the null literal stays unambiguous between the adversary and
  /// scheduler overloads.
  Engine(EngineConfig config,
         std::vector<std::unique_ptr<ProcessBase>> processes,
         std::nullptr_t)
      : Engine(std::move(config), std::move(processes),
               std::unique_ptr<Adversary>()) {}

  /// Executes one protocol round and advances the clock to its completion
  /// tick, or to the max_rounds cap if delivery starves past it. Returns
  /// true while at least one process is still alive and not halted (i.e.,
  /// the protocol is still running). Requires rounds_executed() <
  /// max_rounds.
  bool step();

  /// Steps until the protocol finishes or the clock reaches max_rounds.
  RunResult run();

  /// Virtual-time ticks elapsed: the rounds executed under lock-step
  /// timing, where every round takes one tick.
  [[nodiscard]] RoundNumber rounds_executed() const noexcept {
    return next_round_;
  }
  [[nodiscard]] std::uint32_t num_processes() const noexcept {
    return config_.num_processes;
  }
  /// The resolved executor thread count: config num_threads with 0
  /// expanded to the hardware thread count, clamped to num_processes, and
  /// forced to 1 when a trace sink is attached (the serial fallback).
  [[nodiscard]] std::uint32_t num_threads() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] const ProcessBase& process(ProcessId id) const;
  /// Mutable access, e.g. to attach instrumentation before running.
  [[nodiscard]] ProcessBase& mutable_process(ProcessId id);

  [[nodiscard]] bool is_crashed(ProcessId id) const;
  [[nodiscard]] std::uint32_t crash_count() const noexcept {
    return crashes_so_far_;
  }
  /// Distinct senders the adversary has corrupted so far (≤ max_byzantine).
  [[nodiscard]] std::uint32_t byzantine_count() const noexcept {
    return byzantine_so_far_;
  }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Snapshot of the outcome state (valid at any point, incl. mid-run).
  [[nodiscard]] RunResult result() const;

 private:
  /// kQuarantined: a WireError escaped the process's on_receive (malformed
  /// inbox it did not handle); the engine isolated it — like a crash, it
  /// sends and receives nothing afterwards, but the outcome records the
  /// distinct cause.
  enum class Status : std::uint8_t { kAlive, kHalted, kCrashed, kQuarantined };

  /// One assembled delivery-class inbox: the shared plan merged with the
  /// class's special deliveries, plus its payload bytes.
  struct ClassInbox {
    std::vector<Envelope> envelopes;
    std::uint64_t bytes = 0;
  };

  /// Per-executor-thread state: scratch arenas so workers never share
  /// mutable memory, and metric shards reduced in chunk (= process-id)
  /// order after each fan-out so totals stay bit-identical to a serial run.
  struct WorkerState {
    /// Round-scoped payload decode cache stamped into the envelopes this
    /// worker delivers. Workers never share a cache, so protocol decode
    /// lookups are synchronization-free.
    DecodeCache cache;
    /// This worker's copy of the round's shared delivery plan (worker 0
    /// borrows the master plan instead; see deliver_round).
    std::vector<Envelope> shared_inbox;
    /// kMaxLiveClasses arenas for the inboxes of classes with more members
    /// ahead in this worker's chunk, registered with `cache` while live.
    /// Sized once at construction, so a registered arena never moves.
    std::vector<ClassInbox> class_inboxes;
    /// Indexes into class_inboxes free for the next class.
    std::vector<std::uint32_t> free_class_inboxes;
    /// Per delivery class: 1 + its class_inboxes index while live, else 0.
    std::vector<std::uint32_t> class_slot;
    /// Unregistered assembly arena for a class whose only remaining member
    /// in the chunk is the current recipient.
    ClassInbox scratch_inbox;
    // -- metric shard, folded after the fan-out ----------------------------
    std::uint64_t sends = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_payload = 0;
    std::uint64_t shared_recipients = 0;
    std::uint64_t class_recipients = 0;
    /// WireError escapes quarantined in this worker's chunk this round.
    std::uint64_t malformed = 0;
  };

  /// Round-scoped O(1) lookup of one corrupted sender's rewrites, built
  /// serially after the adversary phase from the validated CorruptionPlan
  /// and read-only during the delivery fan-out. Pointers alias the plan's
  /// entries (stable until the plan is cleared next round).
  struct SenderRewrites {
    /// Fallback for recipients without a per-recipient entry; null = those
    /// recipients see the sender's original outbox.
    const CorruptionPlan::Rewrite* all_recipients = nullptr;
    std::unordered_map<ProcessId, const CorruptionPlan::Rewrite*>
        per_recipient;

    /// The rewrite `receiver` gets, or null for the original outbox.
    [[nodiscard]] const CorruptionPlan::Rewrite* for_recipient(
        ProcessId receiver) const {
      const auto specific = per_recipient.find(receiver);
      return specific != per_recipient.end() ? specific->second
                                             : all_recipients;
    }
  };

  /// A sender whose delivery differs between recipients this round:
  /// crashed this round with a subset mask, corrupted, or sending unicasts.
  struct SpecialSender {
    ProcessId id = kNoProcess;
    /// Crashed this round, snapshotted serially after the adversary phase.
    /// Workers must not read status_ for foreign ids during the fan-out — a
    /// recipient halting in on_receive writes its own status_ slot
    /// concurrently. Crashes cannot happen mid-delivery, so the snapshot
    /// equals what a live read would return.
    bool crashed = false;
    /// Its outbox holds at least one unicast.
    bool has_unicast = false;
    /// This round's rewrites of the sender; null when not corrupted.
    const SenderRewrites* rewrites = nullptr;
  };

  /// Bound on the class inboxes one worker keeps live at once. A class met
  /// while the bound is reached is assembled per recipient, like a
  /// singleton, so memory stays O(kMaxLiveClasses · inbox) whatever the
  /// number of classes.
  static constexpr std::uint32_t kMaxLiveClasses = 32;
  /// The class of every recipient that gets nothing beyond the shared plan.
  static constexpr std::uint32_t kSharedClass = 0;

  void validate_and_apply(const CrashPlan& plan, RoundNumber round);
  void validate_and_index_corruption(const CorruptionPlan& plan);
  /// Collects the round's outboxes. `record_round` is stamped into the
  /// outcome records like deliver_round's: the send tick.
  void send_phase(RoundNumber round, RoundNumber record_round);
  /// Delivers the round's outboxes. `record_round` is the value stamped
  /// into outcome records (decide/halt/quarantine rounds): the completion
  /// tick minus one, which is the round itself under lock-step timing.
  void deliver_round(RoundNumber round, RoundNumber record_round);
  void send_chunk(WorkerState& ws, std::size_t begin, std::size_t end,
                  RoundNumber round, RoundNumber record_round);
  /// Partitions the alive recipients into delivery classes: two recipients
  /// share a class iff every special sender delivers them the same
  /// envelopes. Serial, between the adversary phase and the fan-out.
  void assign_delivery_classes();
  /// What `receiver` gets from `sender` as a small key: equal keys mean
  /// equal envelopes; 0 means nothing.
  [[nodiscard]] std::uint32_t delivery_key(const SpecialSender& sender,
                                           ProcessId receiver) const;
  /// Merges the shared plan with `receiver`'s special deliveries into
  /// `inbox`, in sender-id order, stamped with the worker's cache.
  void assemble_inbox(WorkerState& ws, std::span<const Envelope> shared_view,
                      ProcessId receiver, ClassInbox& inbox);
  void deliver_chunk(WorkerState& ws, std::span<const Envelope> shared_view,
                     std::size_t begin, std::size_t end, RoundNumber round,
                     RoundNumber record_round);
  void receive_guarded(WorkerState& ws, ProcessId receiver,
                       std::span<const Envelope> inbox, RoundNumber round,
                       RoundNumber record_round);
  void note_progress(ProcessId id, RoundNumber round);
  [[nodiscard]] bool protocol_running() const;
  /// True when this round's fan-outs go through the pool (num_threads > 1
  /// and no trace sink attached).
  [[nodiscard]] bool parallel() const noexcept {
    return pool_ != nullptr && config_.trace == nullptr;
  }

  EngineConfig config_;
  std::vector<std::unique_ptr<ProcessBase>> processes_;
  /// The delivery policy; owns the crash/corruption adversary when
  /// synchronous. Never null.
  std::unique_ptr<DeliveryScheduler> scheduler_;
  /// Borrowed from scheduler_ (null for the crash-free delay schedulers).
  Adversary* adversary_ = nullptr;

  std::vector<Status> status_;
  std::vector<ProcessOutcome> outcomes_;
  /// Recipients (as a bitmap) of each process's final-round messages; only
  /// meaningful for processes crashed in the current round.
  std::vector<std::vector<bool>> final_delivery_;
  std::vector<Outbox> outboxes_;
  std::vector<ProcessId> alive_scratch_;

  // -- Round-batched delivery fabric (deliver_round) -----------------------
  // Outboxes are grouped once per round into a shared broadcast plan plus a
  // list of special senders, instead of rescanning every outbox for each of
  // the n recipients.
  /// The envelopes every unexceptional alive recipient receives this round,
  /// in sender-id order — built once, handed to all of them as one span.
  std::vector<Envelope> shared_inbox_;
  /// Senders whose delivery differs between recipients, ascending.
  std::vector<SpecialSender> special_senders_;
  /// Delivery class per recipient (kSharedClass for the shared plan),
  /// meaningful for alive recipients in rounds with special senders.
  std::vector<std::uint32_t> class_of_;
  /// The next alive recipient after this one in its class, or n: a worker
  /// frees a class inbox once no member is left in its chunk.
  std::vector<std::uint32_t> next_in_class_;
  std::uint32_t num_classes_ = 1;
  /// assign_delivery_classes scratch: (class, key) -> refined class, the
  /// unicast targets of the sender being refined, and each class's first
  /// member above the recipient being chained.
  std::unordered_map<std::uint64_t, std::uint32_t> refine_scratch_;
  std::vector<char> unicast_target_;
  std::vector<std::uint32_t> class_head_scratch_;

  // -- Byzantine corruption (Adversary::corrupt) ---------------------------
  /// This round's rewrite plan; owns the replacement payloads (round-scoped
  /// arena, cleared before each adversary phase).
  CorruptionPlan corruption_plan_;
  /// This round's validated rewrite index, keyed by corrupted sender.
  /// Rebuilt serially each round; read-only during the delivery fan-out.
  std::unordered_map<ProcessId, SenderRewrites> round_rewrites_;
  /// Ever-corrupted flag per sender (sticky across rounds).
  std::vector<char> byzantine_;

  // -- Intra-round parallel executor ---------------------------------------
  /// One WorkerState per executor thread (exactly one when serial); the
  /// pool exists only when the resolved thread count exceeds one.
  std::vector<WorkerState> workers_;
  std::unique_ptr<util::ThreadPool> pool_;

  Metrics metrics_;
  /// The next protocol round.
  RoundNumber protocol_round_ = 0;
  /// The virtual tick at which the next round sends.
  RoundNumber next_round_ = 0;
  std::uint32_t crashes_so_far_ = 0;
  std::uint32_t byzantine_so_far_ = 0;
};

/// Checks the three renaming properties (paper §3) over a finished run:
/// every correct process decided (termination), names lie in [1, n]
/// (validity; `namespace_size` = n for tight renaming), and no two correct
/// processes share a name (uniqueness). Crashed and Byzantine processes owe
/// nothing and are skipped; a quarantined *honest* process is always a
/// violation (its validation layer should have contained the malformed
/// traffic). Throws ContractViolation with a diagnostic message on the
/// first violated property.
void validate_renaming(const RunResult& result, std::uint64_t namespace_size);

}  // namespace bil::sim
