#include "sim/event_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pdf {

EventSim::EventSim(const Netlist& nl) {
  if (!nl.finalized()) throw std::logic_error("EventSim: netlist not finalized");
  owned_.emplace(nl);
  init(*owned_);
}

EventSim::EventSim(const CompiledCircuit& cc) { init(cc); }

void EventSim::init(const CompiledCircuit& cc) {
  cc_ = &cc;
  if (cc.has_sequential()) {
    throw std::logic_error("EventSim: netlist is sequential");
  }
  value_.assign(cc.node_count(), kAllX);
  pi_value_.assign(cc.inputs().size(), kAllX);
  required_.assign(cc.node_count(), kAllX);
  has_requirement_.assign(cc.node_count(), false);
  buckets_.resize(static_cast<std::size_t>(cc.depth()) + 1);
  queued_.assign(cc.node_count(), false);
  // With all PIs at xxx, most internal values are xxx too, but constant-free
  // gates of nonzero arity still evaluate to xxx; a full pass keeps us exact
  // even for degenerate netlists.
  for (NodeId id : cc.topo_order()) {
    if (cc.type(id) == GateType::Input) continue;
    value_[id] = eval_node_triple(cc, id, value_.data());
  }
  all_x_value_ = value_;
}

const Triple& EventSim::pi(std::size_t input_index) const {
  return pi_value_.at(input_index);
}

void EventSim::sub_counter_contribution(NodeId, const Triple& req, const Triple& val) {
  if (val.conflicts_with(req)) --violations_;
  if (!val.covers(req)) --unsatisfied_;
}

void EventSim::add_counter_contribution(NodeId id) {
  if (!has_requirement_[id]) return;
  const Triple& req = required_[id];
  const Triple& val = value_[id];
  if (val.conflicts_with(req)) ++violations_;
  if (!val.covers(req)) ++unsatisfied_;
}

void EventSim::set_node_value(NodeId id, const Triple& v) {
  if (value_[id] == v) return;
  if (txn_depth_ > 0) {
    undo_log_.push_back({ChangeKind::NodeValue, id, value_[id], false});
  }
  if (has_requirement_[id]) {
    sub_counter_contribution(id, required_[id], value_[id]);
    value_[id] = v;
    add_counter_contribution(id);
  } else {
    value_[id] = v;
  }
}

void EventSim::propagate(NodeId from) {
  // Seed the worklist with the fanouts of the changed node and process in
  // level order; each node is evaluated at most once, directly over the
  // compiled CSR arrays (no per-propagation allocation).
  const CompiledCircuit& cc = *cc_;
  int min_level = cc.depth() + 1;
  for (NodeId out : cc.fanouts(from)) {
    if (!queued_[out]) {
      queued_[out] = true;
      const int lvl = cc.level(out);
      buckets_[static_cast<std::size_t>(lvl)].push_back(out);
      if (lvl < min_level) min_level = lvl;
    }
  }
  for (std::size_t lvl = static_cast<std::size_t>(min_level); lvl < buckets_.size();
       ++lvl) {
    auto& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      queued_[id] = false;
      const Triple nv = eval_node_triple(cc, id, value_.data());
      if (nv == value_[id]) continue;
      set_node_value(id, nv);
      for (NodeId out : cc.fanouts(id)) {
        if (!queued_[out]) {
          queued_[out] = true;
          buckets_[static_cast<std::size_t>(cc.level(out))].push_back(out);
        }
      }
    }
    bucket.clear();
  }
}

void EventSim::set_pi(std::size_t input_index, const Triple& t) {
  const NodeId id = cc_->inputs()[input_index];
  if (pi_value_[input_index] == t) return;
  if (txn_depth_ > 0) {
    undo_log_.push_back({ChangeKind::PiValue, static_cast<NodeId>(input_index),
                         pi_value_[input_index], false});
  }
  pi_value_[input_index] = t;
  set_node_value(id, t);
  propagate(id);
}

void EventSim::reset() {
  if (txn_depth_ > 0) throw std::logic_error("EventSim::reset inside a transaction");
  undo_log_.clear();
  clear_requirements();
  std::copy(all_x_value_.begin(), all_x_value_.end(), value_.begin());
  std::fill(pi_value_.begin(), pi_value_.end(), kAllX);
}

void EventSim::add_requirement(NodeId id, const Triple& required) {
  const Triple merged =
      has_requirement_[id] ? merge(required_[id], required) : required;
  if (has_requirement_[id] && merged == required_[id]) return;
  if (txn_depth_ > 0) {
    undo_log_.push_back(
        {ChangeKind::Requirement, id, required_[id], has_requirement_[id]});
  }
  if (has_requirement_[id]) sub_counter_contribution(id, required_[id], value_[id]);
  required_[id] = merged;
  has_requirement_[id] = true;
  add_counter_contribution(id);
}

void EventSim::clear_requirements() {
  if (txn_depth_ > 0) {
    throw std::logic_error("EventSim::clear_requirements inside a transaction");
  }
  required_.assign(cc_->node_count(), kAllX);
  has_requirement_.assign(cc_->node_count(), false);
  violations_ = 0;
  unsatisfied_ = 0;
}

std::optional<Triple> EventSim::requirement(NodeId id) const {
  if (!has_requirement_[id]) return std::nullopt;
  return required_[id];
}

std::size_t EventSim::begin_txn() {
  ++txn_depth_;
  return undo_log_.size();
}

void EventSim::rollback(std::size_t token) {
  assert(txn_depth_ > 0);
  while (undo_log_.size() > token) {
    const Change c = undo_log_.back();
    undo_log_.pop_back();
    switch (c.kind) {
      case ChangeKind::NodeValue: {
        const NodeId id = c.node;
        if (has_requirement_[id]) {
          sub_counter_contribution(id, required_[id], value_[id]);
          value_[id] = c.old_value;
          add_counter_contribution(id);
        } else {
          value_[id] = c.old_value;
        }
        break;
      }
      case ChangeKind::PiValue:
        pi_value_[c.node] = c.old_value;
        break;
      case ChangeKind::Requirement: {
        const NodeId id = c.node;
        if (has_requirement_[id]) {
          sub_counter_contribution(id, required_[id], value_[id]);
        }
        required_[id] = c.old_value;
        has_requirement_[id] = c.had_requirement;
        add_counter_contribution(id);
        break;
      }
    }
  }
  --txn_depth_;
}

void EventSim::commit(std::size_t token) {
  assert(txn_depth_ > 0);
  --txn_depth_;
  if (txn_depth_ == 0) {
    undo_log_.clear();
  } else {
    (void)token;  // inner changes stay covered by the outer transaction
  }
}

}  // namespace pdf
