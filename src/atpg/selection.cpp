#include "atpg/selection.hpp"

#include <algorithm>
#include <bit>

namespace pdf {

// ---- RequirementUnion -------------------------------------------------------

RequirementUnion::RequirementUnion(std::size_t node_count)
    : value_(node_count, kAllX), required_(node_count, 0) {}

void RequirementUnion::clear() {
  for (NodeId line : lines_) {
    value_[line] = kAllX;
    required_[line] = 0;
  }
  lines_.clear();
  committed_lines_ = 0;
  trial_.clear();
}

void RequirementUnion::merge(std::span<const ValueRequirement> reqs) {
  trial_.clear();
  for (const ValueRequirement& r : reqs) {
    if (!required_[r.line]) {
      required_[r.line] = 1;
      lines_.push_back(r.line);
    }
    const Triple before = value_[r.line];
    const Triple after = pdf::merge(before, r.value);
    if (after == before) continue;
    value_[r.line] = after;
    trial_.push_back(Change{r.line, before, after});
  }
}

std::span<const RequirementUnion::Change> RequirementUnion::commit() {
  const auto tail = lines_.begin() + static_cast<std::ptrdiff_t>(committed_lines_);
  std::sort(tail, lines_.end());
  std::inplace_merge(lines_.begin(), tail, lines_.end());
  committed_lines_ = lines_.size();
  return trial_;
}

void RequirementUnion::undo() {
  for (auto it = trial_.rbegin(); it != trial_.rend(); ++it) {
    value_[it->line] = it->before;
  }
  trial_.clear();
  for (std::size_t i = committed_lines_; i < lines_.size(); ++i) {
    required_[lines_[i]] = 0;
  }
  lines_.resize(committed_lines_);
}

std::span<const ValueRequirement> RequirementUnion::items() {
  // The committed lines are sorted already; only the trial tail (one
  // fault's requirements) needs sorting before the linear merge.
  const auto tail = lines_.begin() + static_cast<std::ptrdiff_t>(committed_lines_);
  std::sort(tail, lines_.end());
  items_.clear();
  const auto push = [&](NodeId line) {
    items_.push_back(ValueRequirement{line, value_[line]});
  };
  auto a = lines_.begin();
  auto b = tail;
  while (a != tail && b != lines_.end()) push(*b < *a ? *b++ : *a++);
  std::for_each(a, tail, push);
  std::for_each(b, lines_.end(), push);
  return items_;
}

// ---- SecondaryPicker --------------------------------------------------------

SecondaryPicker::SecondaryPicker(std::span<const TargetFault> faults,
                                 std::span<const std::size_t> order,
                                 std::size_t node_count, bool rank_by_delta)
    : rank_by_delta_(rank_by_delta),
      order_(order.begin(), order.end()),
      pos_(faults.size()),
      line_begin_(node_count + 1, 0),
      base_delta_(faults.size(), 0),
      delta_(faults.size(), 0),
      conflict_(faults.size(), 0),
      eligible_(faults.size(), 0) {
  for (std::size_t p = 0; p < order_.size(); ++p) {
    pos_[order_[p]] = static_cast<std::uint32_t>(p);
  }

  // Inverted index, CSR over node ids: count, prefix-sum, fill.
  for (const TargetFault& f : faults) {
    for (const ValueRequirement& r : f.requirements) ++line_begin_[r.line + 1];
  }
  for (std::size_t i = 0; i < node_count; ++i) line_begin_[i + 1] += line_begin_[i];
  occurrences_.resize(line_begin_[node_count]);
  std::vector<std::uint32_t> fill(line_begin_.begin(), line_begin_.end() - 1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    for (const ValueRequirement& r : faults[i].requirements) {
      occurrences_[fill[r.line]++] =
          Occurrence{static_cast<std::uint32_t>(i), r.value};
      if (!kAllX.covers(r.value)) ++base_delta_[i];
    }
    if (rank_by_delta_) max_key_ = std::max<std::size_t>(max_key_, base_delta_[i]);
  }

  words_ = (faults.size() + 63) / 64;
  bits_.assign((max_key_ + 1) * words_, 0);
  count_.assign(max_key_ + 1, 0);
}

void SecondaryPicker::begin(const RequirementUnion& u,
                            const std::vector<bool>& detected,
                            std::size_t exclude) {
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(count_.begin(), count_.end(), 0);

  // Nothing is eligible yet, so the updates below move no bucket entries.
  std::fill(eligible_.begin(), eligible_.end(), 0);
  delta_ = base_delta_;
  std::fill(conflict_.begin(), conflict_.end(), 0);
  for (NodeId line : u.lines()) update_line(line, kAllX, u.at(line), true);

  for (std::size_t i = 0; i < delta_.size(); ++i) {
    eligible_[i] = !detected[i] && i != exclude;
    if (eligible_[i]) insert(i);
  }
}

std::size_t SecondaryPicker::pick() {
  for (std::size_t k = 0; k <= max_key_; ++k) {
    if (count_[k] == 0) continue;
    const std::uint64_t* row = &bits_[k * words_];
    std::size_t w = 0;
    while (row[w] == 0) ++w;
    const std::size_t fault =
        order_[w * 64 + static_cast<std::size_t>(std::countr_zero(row[w]))];
    erase(fault);
    eligible_[fault] = 0;
    return fault;
  }
  return kNone;
}

void SecondaryPicker::apply(std::span<const RequirementUnion::Change> changes) {
  for (const RequirementUnion::Change& c : changes) {
#ifdef PATHDELAY_MUTATION_STALE_DELTA
    // Seeded bug (mutation testing only): the first line a commit changes
    // leaves n_Δ stale for every fault that requires something on it.
    update_line(c.line, c.before, c.after, &c != &changes.front());
#else
    update_line(c.line, c.before, c.after, true);
#endif
  }
}

void SecondaryPicker::update_line(NodeId line, const Triple& before,
                                  const Triple& after, bool update_delta) {
  for (std::uint32_t k = line_begin_[line]; k < line_begin_[line + 1]; ++k) {
    const Occurrence& o = occurrences_[k];
    // The union only gains specified values, so both relations are monotone:
    // a covered requirement stays covered, a conflict stays a conflict.
    if (after.conflicts_with(o.value)) conflict_[o.fault] = 1;
    if (!update_delta || before.covers(o.value) || !after.covers(o.value)) {
      continue;
    }
    const bool moves = eligible_[o.fault] && rank_by_delta_;
    if (moves) erase(o.fault);
    --delta_[o.fault];
    ++delta_updates_;
    if (moves) insert(o.fault);
  }
}

void SecondaryPicker::insert(std::size_t fault) {
  const std::size_t k = key(fault);
  const std::size_t p = pos_[fault];
  bits_[k * words_ + p / 64] |= std::uint64_t{1} << (p % 64);
  ++count_[k];
}

void SecondaryPicker::erase(std::size_t fault) {
  const std::size_t k = key(fault);
  const std::size_t p = pos_[fault];
  bits_[k * words_ + p / 64] &= ~(std::uint64_t{1} << (p % 64));
  --count_[k];
}

}  // namespace pdf
