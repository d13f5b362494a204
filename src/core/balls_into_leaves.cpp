#include "core/balls_into_leaves.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/messages.h"
#include "sim/decode_cache.h"
#include "util/contract.h"

namespace bil::core {

namespace {
template <typename T>
using LabelIndex = std::unordered_map<sim::Label, T>;

/// Decodes every envelope into a per-label map of messages of type T,
/// keeping the first message per label and silently skipping malformed
/// payloads or other message types. (Crash faults cannot forge traffic, so
/// malformed input indicates a harness misconfiguration; skipping — which
/// makes the sender look silent, i.e. crashed — is the conservative
/// response.) Decoding goes through the engine's round-scoped cache, so a
/// broadcast payload is parsed once per round, not once per recipient; a
/// pure function of the inbox contents, as sim::round_index requires.
template <typename T>
LabelIndex<T> index_by_label(std::span<const sim::Envelope> inbox) {
  LabelIndex<T> by_label;
  by_label.reserve(inbox.size());
  Message scratch;
  for (const sim::Envelope& envelope : inbox) {
    const Message* message =
        sim::decode_cached(envelope, scratch, &decode_message);
    if (message == nullptr) {
      continue;  // malformed — the sender looks silent
    }
    if (const T* msg = std::get_if<T>(message)) {
      by_label.emplace(msg->label, *msg);
    }
  }
  return by_label;
}

/// A decoded message together with its engine-authenticated sender id —
/// the input the Byzantine validation layer needs: under wire-level faults
/// a label no longer identifies a sender (anyone can *claim* a label), but
/// Envelope::from cannot be forged.
template <typename T>
struct Attributed {
  T msg;
  sim::ProcessId from = sim::kNoProcess;
};

/// Byzantine-mode sibling of index_by_label: keeps *every* message per
/// label, with provenance, instead of first-wins — a forged message from a
/// low sender id must not shadow the honest ball's real one. Still a pure
/// function of the inbox span, so sim::round_index can memoize it (the
/// distinct result type gets its own memo slot). Only built when
/// tolerate_byzantine is set; crash-only runs never instantiate it.
template <typename T>
using AttributedIndex = LabelIndex<std::vector<Attributed<T>>>;

template <typename T>
AttributedIndex<T> index_all_by_label(std::span<const sim::Envelope> inbox) {
  AttributedIndex<T> by_label;
  by_label.reserve(inbox.size());
  Message scratch;
  for (const sim::Envelope& envelope : inbox) {
    const Message* message =
        sim::decode_cached(envelope, scratch, &decode_message);
    if (message == nullptr) {
      continue;  // malformed — the sender looks silent
    }
    if (const T* msg = std::get_if<T>(message)) {
      by_label[msg->label].push_back(Attributed<T>{*msg, envelope.from});
    }
  }
  return by_label;
}
}  // namespace

const char* to_string(TerminationMode mode) noexcept {
  switch (mode) {
    case TerminationMode::kGlobal:
      return "global";
    case TerminationMode::kEagerLeaf:
      return "eager-leaf";
  }
  return "unknown";
}

BallsIntoLeavesProcess::BallsIntoLeavesProcess(Options options)
    : options_(std::move(options)),
      rng_(options_.seed),
      shape_(options_.shape != nullptr
                 ? options_.shape
                 : tree::TreeShape::make(options_.num_names)),
      view_(shape_) {
  BIL_REQUIRE(options_.num_names >= 1, "namespace must be non-empty");
  BIL_REQUIRE(shape_->num_leaves() == options_.num_names,
              "shared tree shape does not match num_names");
}

void BallsIntoLeavesProcess::on_send(sim::RoundNumber round, sim::Outbox& out) {
  if (round == 0) {
    out.broadcast(encode_message(InitMsg{options_.label}));
    return;
  }
  const sim::Label me = options_.label;
  const tree::NodeId current = view_.current(me);
  if (round % 2 == 1) {
    // Phase round 1: choose and announce the candidate path (lines 3–11).
    // From a leaf the path is trivial; the ball never moves again.
    my_target_ =
        shape_->is_leaf(current)
            ? current
            : choose_target(
                  options_.policy, phase_, view_, current, rng_,
                  [&] { return rank_among_node_mates(view_, me); },
                  [&] { return view_.balls_at(current); });
    out.broadcast(encode_message(PathMsg{me, current, my_target_}));
    return;
  }
  // Phase round 2: announce the position reached (line 22).
  out.broadcast(encode_message(PositionMsg{me, current}));
  if (options_.termination == TerminationMode::kEagerLeaf &&
      shape_->is_leaf(current) && !has_decided()) {
    // Early decision: once at a leaf a ball never moves (candidate paths
    // from a leaf are trivial and no peer can displace it — Theorem 1), so
    // the name is final now. The ball keeps participating until the global
    // halt condition; see TerminationMode::kEagerLeaf for why halting here
    // would be unsound.
    decide(shape_->leaf_rank(current) + 1);
  }
}

void BallsIntoLeavesProcess::on_timeout(sim::RoundNumber round) {
  (void)round;
  // Before init completes the view has no balls (and no ball can be at a
  // leaf anyway); afterwards the leaf check mirrors the kEagerLeaf decide
  // in on_send. See the header for the soundness argument.
  if (phase_ == 0 || has_decided() || halted()) {
    return;
  }
  const tree::NodeId current = view_.current(options_.label);
  if (shape_->is_leaf(current)) {
    decide(shape_->leaf_rank(current) + 1);
  }
}

void BallsIntoLeavesProcess::on_receive(sim::RoundNumber round,
                                        std::span<const sim::Envelope> inbox) {
  if (round == 0) {
    process_init(inbox);
    return;
  }
  if (round % 2 == 1) {
    process_round1(inbox);
    return;
  }
  process_round2(inbox);
  if (options_.observer != nullptr) {
    options_.observer->on_phase_end(view_, snapshot_view(view_, phase_));
  }
  maybe_finish();
  ++phase_;
}

std::span<const sim::Label> BallsIntoLeavesProcess::movement_order() {
  if (options_.movement_order == MovementOrder::kDepthThenLabel) {
    return view_.ordered_balls();
  }
  ablation_order_ = view_.balls();  // ablation: label order, see MovementOrder
  return ablation_order_;
}

void BallsIntoLeavesProcess::process_init(
    std::span<const sim::Envelope> inbox) {
  if (options_.tolerate_byzantine) {
    process_init_tolerant(inbox);
    return;
  }
  const auto collect_labels = [](std::span<const sim::Envelope> envelopes) {
    std::vector<sim::Label> labels;
    labels.reserve(envelopes.size());
    Message decoded;
    for (const sim::Envelope& envelope : envelopes) {
      const Message* message =
          sim::decode_cached(envelope, decoded, &decode_message);
      if (message == nullptr) {
        continue;
      }
      if (const InitMsg* msg = std::get_if<InitMsg>(message)) {
        labels.push_back(msg->label);
      }
    }
    return labels;
  };
  std::vector<sim::Label> scratch;
  const std::vector<sim::Label>& labels =
      *sim::round_index(inbox, scratch, collect_labels);
  view_.insert_all_at_root(labels);
  BIL_ENSURE(view_.contains(options_.label),
             "own init broadcast must loop back");
  phase_ = 1;
}

void BallsIntoLeavesProcess::process_round1(
    std::span<const sim::Envelope> inbox) {
  if (options_.tolerate_byzantine) {
    process_round1_tolerant(inbox);
    return;
  }
  // In a crash-free round every recipient indexes the identical shared
  // inbox; round_index builds the map once per round for all of them.
  LabelIndex<PathMsg> scratch;
  const LabelIndex<PathMsg>& paths =
      *sim::round_index(inbox, scratch, &index_by_label<PathMsg>);
  // Lines 12–20: iterate a snapshot of the balls in <R order; move each ball
  // whose path arrived, remove (at its turn — the interleaving matters, see
  // the class comment) each ball that stayed silent.
  for (const sim::Label ball : movement_order()) {
    const auto it = paths.find(ball);
    if (it == paths.end()) {
      view_.remove(ball);
      continue;
    }
    const PathMsg& path = it->second;
    if (path.start != view_.current(ball)) {
      // A path is always anchored at the sender's phase-start position,
      // which every view that can receive the path agrees on (positions of
      // correct balls are synchronized at phase boundaries, and a ball that
      // crashed in the previous round 2 cannot send a path now). A mismatch
      // is impossible under <R movement — but the label-order ablation
      // deliberately breaks view synchrony, so there we take the sender's
      // word (which is what a naive implementation would do).
      BIL_ENSURE(options_.movement_order == MovementOrder::kLabelOnly,
                 "candidate path start diverges from the synchronized "
                 "position");
      ++divergence_repairs_;
      view_.reposition(ball, path.start);
    }
    BIL_ENSURE(path.target < shape_->num_nodes() &&
                   shape_->is_ancestor_or_self(path.start, path.target),
               "candidate path must descend within the sender's subtree");
    view_.descend_toward(ball, path.target);
  }
}

void BallsIntoLeavesProcess::process_round2(
    std::span<const sim::Envelope> inbox) {
  if (options_.tolerate_byzantine) {
    process_round2_tolerant(inbox);
    return;
  }
  LabelIndex<PositionMsg> scratch;
  const LabelIndex<PositionMsg>& positions =
      *sim::round_index(inbox, scratch, &index_by_label<PositionMsg>);
  // Lines 23–28, same snapshot-and-iterate structure as round 1.
  for (const sim::Label ball : movement_order()) {
    const auto it = positions.find(ball);
    if (it == positions.end()) {
      view_.remove(ball);
      continue;
    }
    const PositionMsg& position = it->second;
    BIL_ENSURE(position.node < shape_->num_nodes(),
               "announced position out of range");
    view_.reposition(ball, position.node);
  }
}

void BallsIntoLeavesProcess::process_init_tolerant(
    std::span<const sim::Envelope> inbox) {
  const auto collect_inits = [](std::span<const sim::Envelope> envelopes) {
    std::vector<Attributed<InitMsg>> inits;
    inits.reserve(envelopes.size());
    Message decoded;
    for (const sim::Envelope& envelope : envelopes) {
      const Message* message =
          sim::decode_cached(envelope, decoded, &decode_message);
      if (message == nullptr) {
        continue;  // undecodable — the sender looks silent
      }
      if (const InitMsg* msg = std::get_if<InitMsg>(message)) {
        inits.push_back(Attributed<InitMsg>{*msg, envelope.from});
      }
    }
    return inits;
  };
  std::vector<Attributed<InitMsg>> scratch;
  const std::vector<Attributed<InitMsg>>& inits =
      *sim::round_index(inbox, scratch, collect_inits);

  // Bind each sender to the first label it announced. Labels are unique and
  // fixed by assumption (paper §3), so a sender announcing a second label,
  // or claiming a label another sender already owns, is provably lying.
  std::unordered_map<sim::Label, sim::ProcessId> owners;
  owners.reserve(inits.size());
  for (const Attributed<InitMsg>& init : inits) {
    if (const std::optional<sim::Label> bound = bound_label(init.from)) {
      if (*bound != init.msg.label) {
        suspect(init.from);  // one sender, two labels: a phantom ball
      }
      continue;
    }
    const auto owner = owners.find(init.msg.label);
    if (owner != owners.end() && owner->second != init.from) {
      // Two senders claim one label. At most one is honest, and nothing in
      // an unauthenticated payload says which — suspect both, symmetrically
      // and deterministically in every view. (If the honest victim is *us*,
      // the loop-back BIL_ENSURE below fires: a forged copy of our own
      // label is identity theft, outside the tolerated fault model. The
      // shipped corruption strategies never rewrite the init round for
      // exactly this reason — see make_adversary.)
      suspect(init.from);
      suspect(owner->second);
      continue;
    }
    if (init.from >= label_of_sender_.size()) {
      label_of_sender_.resize(init.from + 1);
    }
    label_of_sender_[init.from] = init.msg.label;
    owners.emplace(init.msg.label, init.from);
  }
  // Bindings only ever form here; freeze them for the per-round lookups.
  sender_of_label_.assign(owners.begin(), owners.end());
  std::sort(sender_of_label_.begin(), sender_of_label_.end());

  // Insert the surviving bindings at the root, first-seen order, once each.
  std::vector<sim::Label> labels;
  labels.reserve(inits.size());
  std::unordered_set<sim::Label> added;
  added.reserve(inits.size());
  for (const Attributed<InitMsg>& init : inits) {
    if (!trusted_claim(init.from, init.msg.label)) {
      continue;
    }
    if (added.insert(init.msg.label).second) {
      labels.push_back(init.msg.label);
    }
  }
  view_.insert_all_at_root(labels);
  // The engine never rewrites a sender's own loopback (wire-level faults
  // cannot reach it), so our init is always bound to us and trusted —
  // unless another sender forged a copy of our label, which the conflict
  // rule above punishes symmetrically and is outside the fault model.
  BIL_ENSURE(view_.contains(options_.label),
             "own init broadcast must loop back (a conflicting claim on our "
             "own label is identity theft, beyond the tolerated fault model)");
  phase_ = 1;
}

void BallsIntoLeavesProcess::process_round1_tolerant(
    std::span<const sim::Envelope> inbox) {
  AttributedIndex<PathMsg> scratch;
  const AttributedIndex<PathMsg>& paths =
      *sim::round_index(inbox, scratch, &index_all_by_label<PathMsg>);
  // Forgery pre-pass: a message speaking for a label its sender does not
  // own is a provable lie (Envelope::from is engine-authenticated). The
  // index's iteration order is unspecified, but suspecting distinct senders
  // commutes (set its flag + remove that sender's own ball), so the
  // post-pass view state is deterministic.
  for (const auto& [label, claims] : paths) {
    for (const Attributed<PathMsg>& claim : claims) {
      if (bound_label(claim.from) != label) {
        suspect(claim.from);
      }
    }
  }
  for (const sim::Label ball : movement_order()) {
    if (!view_.contains(ball)) {
      continue;  // removed by a suspicion during this pass
    }
    // The one trustworthy path for this ball: sent by its bound sender,
    // which is not suspected. Anything else is treated as silence.
    const Attributed<PathMsg>* path = nullptr;
    const sim::ProcessId owner = owner_of(ball);
    if (owner != sim::kNoProcess && !is_suspected(owner)) {
      if (const auto it = paths.find(ball); it != paths.end()) {
        for (const Attributed<PathMsg>& claim : it->second) {
          if (claim.from == owner) {
            path = &claim;
            break;
          }
        }
      }
    }
    if (path == nullptr) {
      view_.remove(ball);  // silent (or silenced) — lines 19–20
      continue;
    }
    const PathMsg& msg = path->msg;
    if (msg.start >= shape_->num_nodes() ||
        msg.target >= shape_->num_nodes() ||
        !shape_->is_ancestor_or_self(msg.start, msg.target)) {
      // A structurally impossible path is a provable lie, not the harness
      // bug the crash-only BIL_ENSUREs guard against.
      suspect(path->from);
      continue;
    }
    if (msg.start != view_.current(ball)) {
      // Unlike crash-only runs, Byzantine lies legitimately desynchronize
      // views (an equivocator tells different stories to different
      // recipients), so an *honest* sender's anchor can disagree with this
      // view. The sender's self-claim is authoritative — repair, exactly as
      // the label-order ablation path above does.
      ++divergence_repairs_;
      view_.reposition(ball, msg.start);
    }
    view_.descend_toward(ball, msg.target);
  }
}

void BallsIntoLeavesProcess::process_round2_tolerant(
    std::span<const sim::Envelope> inbox) {
  AttributedIndex<PositionMsg> scratch;
  const AttributedIndex<PositionMsg>& positions =
      *sim::round_index(inbox, scratch, &index_all_by_label<PositionMsg>);
  for (const auto& [label, claims] : positions) {
    for (const Attributed<PositionMsg>& claim : claims) {
      if (bound_label(claim.from) != label) {
        suspect(claim.from);
      }
    }
  }
  for (const sim::Label ball : movement_order()) {
    if (!view_.contains(ball)) {
      continue;
    }
    const Attributed<PositionMsg>* position = nullptr;
    const sim::ProcessId owner = owner_of(ball);
    if (owner != sim::kNoProcess && !is_suspected(owner)) {
      if (const auto it = positions.find(ball); it != positions.end()) {
        for (const Attributed<PositionMsg>& claim : it->second) {
          if (claim.from == owner) {
            position = &claim;
            break;
          }
        }
      }
    }
    if (position == nullptr) {
      view_.remove(ball);
      continue;
    }
    if (position->msg.node >= shape_->num_nodes()) {
      suspect(position->from);
      continue;
    }
    view_.reposition(ball, position->msg.node);
  }
  resolve_leaf_conflicts();
}

void BallsIntoLeavesProcess::suspect(sim::ProcessId sender) {
  if (is_suspected(sender)) {
    return;
  }
  if (sender >= suspected_.size()) {
    suspected_.resize(sender + 1, 0);
  }
  suspected_[sender] = 1;
  ++suspected_count_;
  const std::optional<sim::Label> bound = bound_label(sender);
  if (bound && view_.contains(*bound)) {
    view_.remove(*bound);
  }
}

bool BallsIntoLeavesProcess::trusted_claim(sim::ProcessId from,
                                           sim::Label label) const {
  return !is_suspected(from) && bound_label(from) == label;
}

sim::ProcessId BallsIntoLeavesProcess::owner_of(sim::Label label) const {
  const auto it = std::lower_bound(
      sender_of_label_.begin(), sender_of_label_.end(), label,
      [](const std::pair<sim::Label, sim::ProcessId>& binding,
         sim::Label key) { return binding.first < key; });
  return it != sender_of_label_.end() && it->first == label ? it->second
                                                            : sim::kNoProcess;
}

void BallsIntoLeavesProcess::resolve_leaf_conflicts() {
  // Equivocation can deflect two balls onto one leaf: their capacity
  // estimates diverged when they descended. Both claimants just announced
  // their positions as reliable broadcasts, so every honest view — the
  // losers' own included — sees the same conflict and applies the same
  // rule: the lowest label keeps the leaf, the rest restart at the root and
  // re-descend next phase. Because the rule also fires in the loser's own
  // view, an honest loser genuinely restarts and its next announcements
  // re-synchronize every view — uniqueness is restored everywhere
  // simultaneously, and the system self-corrects. A *faulty* loser whose
  // lies keep re-planting it at a contested leaf bounces instead, but only
  // until its own (honest, uncorrupted) view terminates: then it halts,
  // goes silent, and the silence rule purges its ball from every view.
  const std::vector<sim::Label> balls = view_.balls();  // ascending labels
  const std::uint32_t leaves = shape_->num_leaves();
  leaf_claims_.assign(leaves + 1, 0);
  for (const sim::Label ball : balls) {
    const tree::NodeId node = view_.current(ball);
    if (!shape_->is_leaf(node)) {
      continue;
    }
    std::uint32_t& claimed = leaf_claims_[shape_->leaf_rank(node) + 1];
    if (claimed != 0) {
      view_.reposition(ball, tree::TreeShape::root());
      ++evictions_;
    } else {
      claimed = 1;
    }
  }
  // Prefix counts: the claimed leaves of a subtree are a rank range.
  for (std::uint32_t rank = 1; rank <= leaves; ++rank) {
    leaf_claims_[rank] += leaf_claims_[rank - 1];
  }
  // Unstick rule. Equivocation can also strand a ball at an inner node
  // whose subtree is *genuinely* full: a forged path claim diverged the
  // capacity estimates during round 1, the ball's clipped descent parked it
  // at `node` believing a slot existed below, and this round's unconditional
  // repositions then filled every leaf under `node` for real. Every path
  // policy aims at a leaf below the current node and movement clips at it
  // (core/policy.h), so without intervention the ball re-clips at `node`
  // every phase forever — a livelock crash-free synchrony cannot produce
  // (Proposition 1 keeps capacity estimates exact) but equivocation can.
  // Restart such balls at the root. The test reads only the post-round-2
  // leaf occupancy, which the reconvergence argument above makes identical
  // in every view, so all views — the stuck ball's own included — move the
  // same balls, and the restarted ball re-descends toward real slack next
  // phase. The root itself can never be "full" here: with this ball off any
  // leaf, at most num_leaves - 1 leaves are occupied.
  for (const sim::Label ball : balls) {
    const tree::NodeId node = view_.current(ball);
    if (shape_->is_leaf(node) || node == tree::TreeShape::root()) {
      continue;
    }
    const std::uint32_t first = shape_->first_leaf(node);
    const std::uint32_t count = shape_->leaf_count(node);
    if (leaf_claims_[first + count] - leaf_claims_[first] == count) {
      view_.reposition(ball, tree::TreeShape::root());
      ++evictions_;
    }
  }
}

void BallsIntoLeavesProcess::maybe_finish() {
  if (halted()) {
    return;
  }
  // Line 29: leave the protocol once every ball in the view sits at a leaf
  // (both termination modes halt globally; kEagerLeaf merely decided
  // earlier, in on_send).
  if (view_.all_at_leaves()) {
    if (!has_decided()) {
      decide(shape_->leaf_rank(view_.current(options_.label)) + 1);
    }
    halt();
  }
}

}  // namespace bil::core
