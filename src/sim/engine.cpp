#include "sim/engine.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/contract.h"

namespace bil::sim {

namespace {
/// No (class, key) pair: class ids stay below n, so the high word of a
/// real pair is never all ones.
constexpr std::uint64_t kNoRefineKey = ~std::uint64_t{0};
}  // namespace

RoundNumber RunResult::last_decide_round() const {
  BIL_REQUIRE(completed, "run did not complete");
  RoundNumber latest = 0;
  bool any = false;
  for (const ProcessOutcome& outcome : outcomes) {
    if (!outcome.crashed && outcome.decided) {
      latest = std::max(latest, outcome.decide_round);
      any = true;
    }
  }
  BIL_REQUIRE(any, "no correct process decided");
  return latest;
}

Engine::Engine(EngineConfig config,
               std::vector<std::unique_ptr<ProcessBase>> processes,
               std::unique_ptr<Adversary> adversary)
    : Engine(config, std::move(processes),
             std::make_unique<SynchronousScheduler>(std::move(adversary))) {}

Engine::Engine(EngineConfig config,
               std::vector<std::unique_ptr<ProcessBase>> processes,
               std::unique_ptr<DeliveryScheduler> scheduler)
    : config_(config),
      processes_(std::move(processes)),
      scheduler_(std::move(scheduler)) {
  BIL_REQUIRE(scheduler_ != nullptr, "need a delivery scheduler");
  adversary_ = scheduler_->adversary();
  if (!scheduler_->synchronous()) {
    // Delay schedulers are crash-free by contract: they attack timing, not
    // processes (sim/scheduler.h), and BiL's on_timeout decision is sound
    // only without crashes. Rejecting the budgets here keeps the contract
    // from silently decaying.
    BIL_REQUIRE(config_.max_crashes == 0,
                "asynchronous schedulers are crash-free: combine delays "
                "with a zero crash budget");
    BIL_REQUIRE(config_.max_byzantine == 0,
                "asynchronous schedulers are crash-free: combine delays "
                "with a zero Byzantine budget");
    BIL_REQUIRE(adversary_ == nullptr,
                "asynchronous schedulers must not carry a crash/corruption "
                "adversary");
  }
  BIL_REQUIRE(config_.num_processes >= 1, "need at least one process");
  BIL_REQUIRE(processes_.size() == config_.num_processes,
              "process vector size must equal num_processes");
  BIL_REQUIRE(config_.max_crashes < config_.num_processes,
              "crash budget t must satisfy t < n");
  BIL_REQUIRE(config_.max_byzantine < config_.num_processes,
              "Byzantine budget f must satisfy f < n");
  for (const auto& process : processes_) {
    BIL_REQUIRE(process != nullptr, "null process");
  }
  if (config_.max_rounds == 0) {
    config_.max_rounds = 16 * config_.num_processes + 64;
  }
  status_.assign(config_.num_processes, Status::kAlive);
  outcomes_.assign(config_.num_processes, ProcessOutcome{});
  byzantine_.assign(config_.num_processes, 0);
  final_delivery_.resize(config_.num_processes);
  outboxes_.resize(config_.num_processes);

  // Resolve the executor width. More threads than processes cannot help (a
  // chunk would be empty every round), and a trace sink forces serial
  // execution anyway (events must stream in id order), so spawn workers
  // only when some fan-out will actually use them.
  std::uint32_t threads = config_.num_threads == 0
                              ? util::ThreadPool::hardware_threads()
                              : config_.num_threads;
  threads = std::max(1u, std::min(threads, config_.num_processes));
  if (config_.trace != nullptr) {
    threads = 1;
  }
  workers_.resize(threads);
  for (WorkerState& ws : workers_) {
    ws.class_inboxes.resize(kMaxLiveClasses);
    for (std::uint32_t slot = kMaxLiveClasses; slot-- > 0;) {
      ws.free_class_inboxes.push_back(slot);
    }
  }
  if (threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
}

const ProcessBase& Engine::process(ProcessId id) const {
  BIL_REQUIRE(id < processes_.size(), "process id out of range");
  return *processes_[id];
}

ProcessBase& Engine::mutable_process(ProcessId id) {
  BIL_REQUIRE(id < processes_.size(), "process id out of range");
  return *processes_[id];
}

bool Engine::is_crashed(ProcessId id) const {
  BIL_REQUIRE(id < status_.size(), "process id out of range");
  return status_[id] == Status::kCrashed;
}

bool Engine::protocol_running() const {
  return std::any_of(status_.begin(), status_.end(),
                     [](Status s) { return s == Status::kAlive; });
}

void Engine::note_progress(ProcessId id, RoundNumber round) {
  ProcessOutcome& outcome = outcomes_[id];
  if (!outcome.decided && processes_[id]->has_decided()) {
    outcome.decided = true;
    outcome.name = processes_[id]->decision();
    outcome.decide_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_decide(round, id, outcome.name);
    }
  }
  if (status_[id] == Status::kAlive && processes_[id]->halted()) {
    status_[id] = Status::kHalted;
    outcome.halted = true;
    outcome.halt_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_halt(round, id);
    }
  }
}

void Engine::validate_and_apply(const CrashPlan& plan, RoundNumber round) {
  std::unordered_set<ProcessId> seen;
  for (const CrashPlan::Crash& crash : plan.crashes()) {
    BIL_REQUIRE(crash.victim < config_.num_processes,
                "crash victim id out of range");
    BIL_REQUIRE(status_[crash.victim] == Status::kAlive,
                "adversary crashed a process that is not alive");
    BIL_REQUIRE(seen.insert(crash.victim).second,
                "adversary crashed the same process twice in one round");
    BIL_REQUIRE(crashes_so_far_ < config_.max_crashes,
                "adversary exceeded its crash budget t");
    ++crashes_so_far_;

    status_[crash.victim] = Status::kCrashed;
    outcomes_[crash.victim].crashed = true;
    outcomes_[crash.victim].crash_round = round;
    if (config_.trace != nullptr) {
      config_.trace->on_crash(round, crash.victim, crash.deliver_to.size());
    }

    std::vector<bool>& mask = final_delivery_[crash.victim];
    mask.assign(config_.num_processes, false);
    for (ProcessId recipient : crash.deliver_to) {
      BIL_REQUIRE(recipient < config_.num_processes,
                  "crash delivery recipient out of range");
      mask[recipient] = true;
    }
  }
}

void Engine::validate_and_index_corruption(const CorruptionPlan& plan) {
  for (const CorruptionPlan::Rewrite& rewrite : plan.rewrites()) {
    BIL_REQUIRE(rewrite.sender < config_.num_processes,
                "corrupted sender id out of range");
    BIL_REQUIRE(status_[rewrite.sender] == Status::kAlive,
                "adversary corrupted a process that is not alive this round");
    if (byzantine_[rewrite.sender] == 0) {
      BIL_REQUIRE(byzantine_so_far_ < config_.max_byzantine,
                  "adversary exceeded its Byzantine budget f");
      byzantine_[rewrite.sender] = 1;
      ++byzantine_so_far_;
      outcomes_[rewrite.sender].byzantine = true;
    }
    SenderRewrites& index = round_rewrites_[rewrite.sender];
    if (rewrite.recipient == kNoProcess) {
      BIL_REQUIRE(index.all_recipients == nullptr,
                  "duplicate all-recipients rewrite for one sender");
      index.all_recipients = &rewrite;
    } else {
      BIL_REQUIRE(rewrite.recipient < config_.num_processes,
                  "rewrite recipient id out of range");
      BIL_REQUIRE(rewrite.recipient != rewrite.sender,
                  "rewrite recipient must differ from the sender: loopback "
                  "does not traverse the wire");
      BIL_REQUIRE(
          index.per_recipient.emplace(rewrite.recipient, &rewrite)
              .second,
          "duplicate rewrite for one (sender, recipient) pair");
    }
  }
}

void Engine::receive_guarded(WorkerState& ws, ProcessId receiver,
                             std::span<const Envelope> inbox,
                             RoundNumber round, RoundNumber record_round) {
  try {
    processes_[receiver]->on_receive(round, inbox);
  } catch (const wire::WireError&) {
    // The process let malformed traffic escape as a WireError instead of
    // handling it. Isolate the process (it falls silent like a crash, but
    // the outcome records the distinct cause) rather than aborting the
    // whole run. The status write targets this worker's own chunk id —
    // the same safety argument as a recipient halting in on_receive.
    status_[receiver] = Status::kQuarantined;
    outcomes_[receiver].quarantined = true;
    outcomes_[receiver].quarantine_round = record_round;
    ++ws.malformed;
    return;
  }
  note_progress(receiver, record_round);
}

void Engine::send_chunk(WorkerState& ws, std::size_t begin, std::size_t end,
                        RoundNumber round, RoundNumber record_round) {
  for (std::size_t id = begin; id < end; ++id) {
    // Clearing every outbox (halted/crashed processes keep theirs empty)
    // also recycles its payload arena for the new round.
    outboxes_[id].clear();
    if (status_[id] != Status::kAlive) {
      continue;
    }
    const auto pid = static_cast<ProcessId>(id);
    processes_[pid]->on_send(round, outboxes_[pid]);
    ws.sends += outboxes_[pid].messages().size();
    if (config_.trace != nullptr && !outboxes_[pid].empty()) {
      config_.trace->on_send(round, pid, outboxes_[pid].messages().size());
    }
    note_progress(pid, record_round);
  }
}

void Engine::send_phase(RoundNumber round, RoundNumber record_round) {
  // Collect this round's messages. Each sender touches only its own process
  // state and its own outbox (with its own payload arena), so the fan-out
  // shards cleanly over the pool; the per-worker send counters are summed
  // afterwards — integer addition commutes, so the round's send total is
  // bit-identical to the serial per-process accounting.
  if (parallel()) {
    pool_->parallel_chunks(
        config_.num_processes,
        [&](std::uint32_t chunk, std::size_t begin, std::size_t end) {
          send_chunk(workers_[chunk], begin, end, round, record_round);
        });
  } else {
    send_chunk(workers_[0], 0, config_.num_processes, round, record_round);
  }
  std::uint64_t sends = 0;
  for (WorkerState& ws : workers_) {
    sends += ws.sends;
    ws.sends = 0;
  }
  metrics_.record_send(sends);
}

std::uint32_t Engine::delivery_key(const SpecialSender& sender,
                                   ProcessId receiver) const {
  // Keys: 0 = nothing, 1 = the outbox's broadcasts, 2 + receiver = the
  // broadcasts plus unicasts addressed to this receiver alone, n + 2 + i =
  // rewrite i of the round's CorruptionPlan.
  if (sender.crashed && !final_delivery_[sender.id][receiver]) {
    return 0;
  }
  if (sender.rewrites != nullptr && receiver != sender.id) {
    if (const CorruptionPlan::Rewrite* rewrite =
            sender.rewrites->for_recipient(receiver)) {
      if (rewrite->payloads.empty()) {
        return 0;
      }
      return config_.num_processes + 2 +
             static_cast<std::uint32_t>(
                 rewrite - corruption_plan_.rewrites().data());
    }
  }
  if (sender.has_unicast && unicast_target_[receiver] != 0) {
    return 2 + receiver;
  }
  for (const OutboundMessage& message : outboxes_[sender.id].messages()) {
    if (message.broadcast) {
      return 1;
    }
  }
  return 0;
}

void Engine::assign_delivery_classes() {
  // Partition refinement, one special sender at a time: a recipient's class
  // after sender s is its class before s paired with what s delivers to it.
  // New ids are handed out in ascending recipient order, and (shared plan,
  // nothing) keeps id kSharedClass, so class ids are deterministic and
  // kSharedClass is exactly the recipients with an all-nothing signature.
  const std::uint32_t n = config_.num_processes;
  class_of_.assign(n, kSharedClass);
  num_classes_ = 1;
  for (const SpecialSender& sender : special_senders_) {
    if (sender.has_unicast) {
      unicast_target_.assign(n, 0);
      for (const OutboundMessage& message :
           outboxes_[sender.id].messages()) {
        if (!message.broadcast && message.to < n) {
          unicast_target_[message.to] = 1;
        }
      }
    }
    refine_scratch_.clear();
    refine_scratch_.emplace(std::uint64_t{kSharedClass} << 32, kSharedClass);
    std::uint32_t next = kSharedClass + 1;
    // Neighbouring recipients mostly repeat the same (class, key) pair — a
    // corrupted sender's rewrite reaches everyone but itself — so the last
    // pair is checked before the hash map.
    std::uint64_t last_key = kNoRefineKey;
    std::uint32_t last_class = kSharedClass;
    for (ProcessId receiver = 0; receiver < n; ++receiver) {
      if (status_[receiver] != Status::kAlive) {
        continue;
      }
      const std::uint64_t key =
          (std::uint64_t{class_of_[receiver]} << 32) |
          delivery_key(sender, receiver);
      if (key != last_key) {
        const auto [it, inserted] = refine_scratch_.try_emplace(key, next);
        next += inserted ? 1 : 0;
        last_key = key;
        last_class = it->second;
      }
      class_of_[receiver] = last_class;
    }
    num_classes_ = next;
  }
  // Chain each class's members so a worker knows when a class inbox has
  // served the last member of its chunk.
  next_in_class_.assign(n, n);
  std::vector<std::uint32_t>& following = class_head_scratch_;
  following.assign(num_classes_, n);
  for (ProcessId receiver = n; receiver-- > 0;) {
    if (status_[receiver] != Status::kAlive) {
      continue;
    }
    const std::uint32_t cls = class_of_[receiver];
    next_in_class_[receiver] = following[cls];
    following[cls] = receiver;
  }
}

void Engine::assemble_inbox(WorkerState& ws,
                            std::span<const Envelope> shared_view,
                            ProcessId receiver, ClassInbox& inbox) {
  // Sender-id order is preserved: a sender is shared xor special, the
  // shared plan is already ascending, and a special sender's messages keep
  // their outbox order.
  inbox.envelopes.clear();
  std::uint64_t bytes = 0;
  std::size_t shared_index = 0;
  for (const SpecialSender& sender : special_senders_) {
    while (shared_index < shared_view.size() &&
           shared_view[shared_index].from < sender.id) {
      const Envelope& envelope = shared_view[shared_index++];
      bytes += envelope.payload->size();
      inbox.envelopes.push_back(envelope);
    }
    if (sender.crashed && !final_delivery_[sender.id][receiver]) {
      continue;
    }
    if (sender.rewrites != nullptr && receiver != sender.id) {
      // Byzantine corruption: a per-recipient rewrite wins over the
      // all-recipients one; either replaces the sender's original outbox
      // wholesale for this recipient. The sender itself always sees its own
      // original traffic (loopback does not traverse the wire).
      if (const CorruptionPlan::Rewrite* rewrite =
              sender.rewrites->for_recipient(receiver)) {
        for (const wire::Buffer* payload : rewrite->payloads) {
          inbox.envelopes.push_back(Envelope{sender.id, payload, &ws.cache});
          const std::uint64_t size = payload->size();
          bytes += size;
          ws.max_payload = std::max(ws.max_payload, size);
        }
        continue;
      }
    }
    for (const OutboundMessage& message : outboxes_[sender.id].messages()) {
      if (message.broadcast || message.to == receiver) {
        inbox.envelopes.push_back(
            Envelope{sender.id, message.payload, &ws.cache});
        const std::uint64_t size = message.payload->size();
        bytes += size;
        ws.max_payload = std::max(ws.max_payload, size);
      }
    }
  }
  while (shared_index < shared_view.size()) {
    const Envelope& envelope = shared_view[shared_index++];
    bytes += envelope.payload->size();
    inbox.envelopes.push_back(envelope);
  }
  inbox.bytes = bytes;
}

void Engine::deliver_chunk(WorkerState& ws,
                           std::span<const Envelope> shared_view,
                           std::size_t begin, std::size_t end,
                           RoundNumber round, RoundNumber record_round) {
  // Stale buffer addresses from the previous round must never be consulted:
  // clear the worker's cache before its first lookup against this round's
  // payloads. The shared plan has a round-stable address; registering it
  // memoizes whole-inbox indexes once per worker (see
  // DecodeCache::get_or_build_memo). Both happen here, inside the fan-out,
  // so freeing last round's entries runs on every worker at once.
  ws.cache.begin_round();
  ws.cache.register_inbox(shared_view);
  const bool has_special = !special_senders_.empty();
  if (has_special) {
    ws.class_slot.assign(num_classes_, 0);
  }
  for (std::size_t id = begin; id < end; ++id) {
    const auto receiver = static_cast<ProcessId>(id);
    if (status_[receiver] != Status::kAlive) {
      continue;
    }
    const std::uint32_t cls =
        has_special ? class_of_[receiver] : kSharedClass;
    if (cls == kSharedClass) {
      ++ws.shared_recipients;
      receive_guarded(ws, receiver, shared_view, round, record_round);
      continue;
    }
    ++ws.class_recipients;
    // The class inbox is assembled once per worker, at its first member in
    // the chunk, and registered so round_index memoizes one index for all
    // members; a class with no further member in the chunk (a singleton,
    // e.g. every recipient of an equivocator) goes through the scratch
    // arena unregistered.
    const bool last_in_chunk = next_in_class_[receiver] >= end;
    std::uint32_t& slot = ws.class_slot[cls];
    ClassInbox* inbox = nullptr;
    if (slot != 0) {
      inbox = &ws.class_inboxes[slot - 1];
    } else if (last_in_chunk || ws.free_class_inboxes.empty()) {
      inbox = &ws.scratch_inbox;
      assemble_inbox(ws, shared_view, receiver, *inbox);
    } else {
      slot = ws.free_class_inboxes.back() + 1;
      ws.free_class_inboxes.pop_back();
      inbox = &ws.class_inboxes[slot - 1];
      assemble_inbox(ws, shared_view, receiver, *inbox);
      ws.cache.register_inbox(inbox->envelopes);
    }
    ws.deliveries += inbox->envelopes.size();
    ws.bytes += inbox->bytes;
    receive_guarded(ws, receiver, inbox->envelopes, round, record_round);
    if (slot != 0 && last_in_chunk) {
      // Last member in this chunk: free the memo with the inbox, so memory
      // tracks live classes, not all classes.
      ws.cache.release_inbox(inbox->envelopes);
      ws.free_class_inboxes.push_back(slot - 1);
      slot = 0;
    }
  }
}

void Engine::deliver_round(RoundNumber round, RoundNumber record_round) {
  const std::uint32_t n = config_.num_processes;

  // Group the outboxes into delivery plans, once per round. A sender is
  // *shared* when its messages reach every alive recipient identically — it
  // is alive (or halted, vacuously: halted outboxes are empty) and sends
  // only broadcasts. Everything else — unicasts, a sender crashed *this*
  // round whose messages reach exactly the adversary-chosen subset, or a
  // corrupted sender — is *special*. Processes crashed in earlier rounds
  // never reached on_send, so their outboxes are empty and they appear in
  // neither plan.
  shared_inbox_.clear();
  special_senders_.clear();
  std::uint64_t shared_bytes = 0;
  std::uint64_t shared_max_payload = 0;
  for (ProcessId sender = 0; sender < n; ++sender) {
    const Outbox& outbox = outboxes_[sender];
    const SenderRewrites* rewrites = nullptr;
    if (!round_rewrites_.empty()) {
      const auto it = round_rewrites_.find(sender);
      if (it != round_rewrites_.end()) {
        rewrites = &it->second;
      }
    }
    // A corrupted sender is always special, even with an empty outbox: its
    // rewrites may fabricate traffic the sender never produced.
    if (outbox.empty() && rewrites == nullptr) {
      continue;
    }
    const bool crashed = status_[sender] == Status::kCrashed;
    bool has_unicast = false;
    for (const OutboundMessage& message : outbox.messages()) {
      has_unicast = has_unicast || !message.broadcast;
    }
    if (crashed || rewrites != nullptr || has_unicast) {
      special_senders_.push_back(SpecialSender{.id = sender,
                                               .crashed = crashed,
                                               .has_unicast = has_unicast,
                                               .rewrites = rewrites});
      continue;
    }
    for (const OutboundMessage& message : outbox.messages()) {
      shared_inbox_.push_back(
          Envelope{sender, message.payload, &workers_[0].cache});
      const std::uint64_t size = message.payload->size();
      shared_bytes += size;
      shared_max_payload = std::max(shared_max_payload, size);
    }
  }

  if (!special_senders_.empty()) {
    assign_delivery_classes();
  }

  // Recipient fan-out. Each recipient touches only its own process state;
  // the plans, outboxes and status flags are read-only until the join.
  // Workers beyond the first deliver their own copy of the shared plan,
  // restamped with their own cache: the copies are element-wise identical
  // (an envelope's cache only routes decoding, it never changes the decoded
  // value), so recipients observe the same inbox regardless of which worker
  // delivers to them, and each worker memoizes decodes and indexes
  // privately — no lookup ever crosses a thread.
  if (parallel()) {
    pool_->parallel_chunks(
        n, [&](std::uint32_t chunk, std::size_t begin, std::size_t end) {
          WorkerState& ws = workers_[chunk];
          if (chunk == 0) {
            deliver_chunk(ws, shared_inbox_, begin, end, round, record_round);
            return;
          }
          ws.shared_inbox.assign(shared_inbox_.begin(), shared_inbox_.end());
          for (Envelope& envelope : ws.shared_inbox) {
            envelope.cache = &ws.cache;
          }
          deliver_chunk(ws, ws.shared_inbox, begin, end, round, record_round);
        });
  } else {
    deliver_chunk(workers_[0], shared_inbox_, 0, n, round, record_round);
  }

  // Fold the metric shards in chunk (= ascending process-id) order. Every
  // counter is an integer sum or max over per-delivery values, so the fold
  // is bit-identical to the per-recipient accounting the serial engine used
  // to do (and to any other fold order).
  std::uint64_t shared_recipients = 0;
  std::uint64_t class_recipients = 0;
  std::uint64_t class_deliveries = 0;
  std::uint64_t class_bytes = 0;
  std::uint64_t class_max_payload = 0;
  std::uint64_t malformed = 0;
  for (WorkerState& ws : workers_) {
    shared_recipients += ws.shared_recipients;
    class_recipients += ws.class_recipients;
    class_deliveries += ws.deliveries;
    class_bytes += ws.bytes;
    class_max_payload = std::max(class_max_payload, ws.max_payload);
    malformed += ws.malformed;
    ws.shared_recipients = 0;
    ws.class_recipients = 0;
    ws.deliveries = 0;
    ws.bytes = 0;
    ws.max_payload = 0;
    ws.malformed = 0;
  }
  if (malformed > 0) {
    metrics_.record_malformed(malformed);
  }
  if (class_recipients > 0) {
    metrics_.record_deliveries(class_deliveries, class_bytes);
    metrics_.note_payload(class_max_payload);
    if (!shared_inbox_.empty()) {
      // Class rows embed the full shared plan (their counts and bytes
      // already include it above); the max tracker still needs to see those
      // shared payloads as delivered.
      metrics_.note_payload(shared_max_payload);
    }
  }

  // Batch accounting for the shared plan: identical totals to per-envelope
  // counting (the shared span reached shared_recipients recipients), and the
  // max tracker sees each shared payload iff it was delivered at least once.
  if (shared_recipients > 0 && !shared_inbox_.empty()) {
    metrics_.record_deliveries(shared_inbox_.size() * shared_recipients,
                               shared_bytes * shared_recipients);
    metrics_.note_payload(shared_max_payload);
  }
}

bool Engine::step() {
  BIL_REQUIRE(protocol_running(), "step() called on a finished run");
  const VirtualTime cap = config_.max_rounds;  // in ticks (EngineConfig)
  const VirtualTime now = next_round_;
  BIL_REQUIRE(now < cap, "step() called past the round cap");
  const RoundNumber round = protocol_round_++;
  metrics_.begin_round();
  if (config_.trace != nullptr) {
    config_.trace->on_round_begin(round);
  }

  send_phase(round, next_round_);

  // The round completes when its last (sender, round) batch arrives; an
  // all-silent round still takes one tick. Batches are asked for in id
  // order, so a randomized scheduler draws its delays in a fixed order.
  VirtualTime complete = now + 1;
  for (ProcessId id = 0; id < config_.num_processes; ++id) {
    if (outboxes_[id].empty()) {
      continue;
    }
    const VirtualTime at = scheduler_->deliver_at(SendBatch{
        id, round, now,
        static_cast<std::uint32_t>(outboxes_[id].messages().size())});
    BIL_REQUIRE(at > now,
                "scheduler violated the progress contract: a batch must be "
                "delivered strictly after it was sent");
    complete = std::max(complete, at);
  }

  // Adversary phase: the adversary observes all pending messages (hence all
  // coin flips that shaped them) before committing crashes — the strong
  // adaptive model. Always serial: the adversary sees a global snapshot.
  if (adversary_ != nullptr) {
    alive_scratch_.clear();
    for (ProcessId id = 0; id < config_.num_processes; ++id) {
      if (status_[id] == Status::kAlive) {
        alive_scratch_.push_back(id);
      }
    }
    const RoundView view(round, config_.num_processes, alive_scratch_,
                         processes_, outboxes_,
                         config_.max_crashes - crashes_so_far_);
    CrashPlan plan;
    adversary_->schedule(view, plan);
    // Byzantine phase: same snapshot, after crash scheduling. The plan is
    // validated against the post-crash status so a process cannot be both
    // crashed and corrupted in one round.
    corruption_plan_.clear();
    round_rewrites_.clear();
    adversary_->corrupt(view, corruption_plan_);
    validate_and_apply(plan, round);
    validate_and_index_corruption(corruption_plan_);
  }

  // A round still incomplete `timeout` ticks after its sends times out:
  // the hook fires once, in id order, at tick now + timeout — before the
  // cap check, so a round that then starves past the cap still times out.
  // The differences cannot wrap, unlike now + timeout.
  const VirtualTime timeout = scheduler_->timeout_ticks();
  if (timeout > 0 && complete - now > timeout && timeout < cap - now) {
    for (ProcessId id = 0; id < config_.num_processes; ++id) {
      if (status_[id] != Status::kAlive) {
        continue;
      }
      processes_[id]->on_timeout(round);
      note_progress(id, static_cast<RoundNumber>(now + timeout));
    }
  }
  if (complete > cap) {
    // Starved delivery: the round cannot complete within the cap. End
    // cleanly (completed = false).
    next_round_ = config_.max_rounds;
    return protocol_running();
  }

  // Receive outcomes are recorded on the tick before completion, which is
  // the round itself under lock-step timing.
  deliver_round(round, static_cast<RoundNumber>(complete - 1));
  next_round_ = static_cast<RoundNumber>(complete);
  return protocol_running();
}

RunResult Engine::run() {
  while (protocol_running() && next_round_ < config_.max_rounds) {
    step();
  }
  return result();
}

RunResult Engine::result() const {
  RunResult result;
  result.completed = !protocol_running();
  result.rounds = next_round_;
  result.outcomes = outcomes_;
  result.metrics = metrics_;
  return result;
}

void validate_renaming(const RunResult& result, std::uint64_t namespace_size) {
  BIL_REQUIRE(result.completed,
              "run hit the round cap without completing; rounds=" +
                  std::to_string(result.rounds));
  std::unordered_set<std::uint64_t> names;
  for (std::size_t id = 0; id < result.outcomes.size(); ++id) {
    const ProcessOutcome& outcome = result.outcomes[id];
    if (outcome.crashed || outcome.byzantine) {
      continue;  // faulty processes owe nothing
    }
    BIL_REQUIRE(!outcome.quarantined,
                "honest process " + std::to_string(id) +
                    " was quarantined in round " +
                    std::to_string(outcome.quarantine_round) +
                    " (its validation layer let malformed traffic escape)");
    BIL_REQUIRE(outcome.decided, "termination violated: correct process " +
                                     std::to_string(id) + " did not decide");
    BIL_REQUIRE(outcome.name >= 1 && outcome.name <= namespace_size,
                "validity violated: process " + std::to_string(id) +
                    " decided name " + std::to_string(outcome.name) +
                    " outside 1.." + std::to_string(namespace_size));
    BIL_REQUIRE(names.insert(outcome.name).second,
                "uniqueness violated: name " + std::to_string(outcome.name) +
                    " decided twice (second: process " + std::to_string(id) +
                    ")");
  }
}

bool RoundView::is_alive(ProcessId id) const noexcept {
  return std::binary_search(alive_.begin(), alive_.end(), id);
}

}  // namespace bil::sim
