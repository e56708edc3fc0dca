#include "store/serde.hpp"

#include "store/hash.hpp"

namespace pdf::store {
namespace {

V3 v3_from_byte(std::uint8_t b) {
  if (b > static_cast<std::uint8_t>(V3::X)) throw SerdeError("invalid V3 byte");
  return static_cast<V3>(b);
}

void encode_bool_vector(ByteWriter& w, const std::vector<bool>& v) {
  w.u64(v.size());
  // Packed 8 per byte; bit-exact and 8x smaller than byte-per-flag.
  std::uint8_t acc = 0;
  int filled = 0;
  for (const bool b : v) {
    acc = static_cast<std::uint8_t>(acc | (static_cast<std::uint8_t>(b) << filled));
    if (++filled == 8) {
      w.u8(acc);
      acc = 0;
      filled = 0;
    }
  }
  if (filled > 0) w.u8(acc);
}

std::vector<bool> decode_bool_vector(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64(), 0);
  if (n / 8 > r.remaining()) throw SerdeError("bool vector exceeds record");
  std::vector<bool> out(n);
  std::uint8_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 8 == 0) acc = r.u8();
    out[i] = (acc >> (i % 8)) & 1;
  }
  return out;
}

}  // namespace

// ---- small value types ------------------------------------------------------

void encode(ByteWriter& w, const Triple& t) {
  w.u8(static_cast<std::uint8_t>(t.a1));
  w.u8(static_cast<std::uint8_t>(t.a2));
  w.u8(static_cast<std::uint8_t>(t.a3));
}

Triple decode_triple(ByteReader& r) {
  Triple t;
  t.a1 = v3_from_byte(r.u8());
  t.a2 = v3_from_byte(r.u8());
  t.a3 = v3_from_byte(r.u8());
  return t;
}

void encode(ByteWriter& w, const TwoPatternTest& t) {
  w.u64(t.pi_values.size());
  for (const Triple& v : t.pi_values) encode(w, v);
}

TwoPatternTest decode_test(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64(), 3);
  TwoPatternTest t;
  t.pi_values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) t.pi_values.push_back(decode_triple(r));
  return t;
}

void encode(ByteWriter& w, std::span<const TwoPatternTest> tests) {
  w.u64(tests.size());
  for (const TwoPatternTest& t : tests) encode(w, t);
}

std::vector<TwoPatternTest> decode_tests(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64());
  std::vector<TwoPatternTest> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_test(r));
  return out;
}

void encode(ByteWriter& w, const Path& p) {
  w.u64(p.nodes.size());
  for (const NodeId id : p.nodes) w.u32(id);
}

Path decode_path(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64(), sizeof(NodeId));
  Path p;
  p.nodes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) p.nodes.push_back(r.u32());
  return p;
}

void encode(ByteWriter& w, const PathDelayFault& f) {
  encode(w, f.path);
  w.boolean(f.rising_source);
  w.i32(f.length);
}

PathDelayFault decode_fault(ByteReader& r) {
  PathDelayFault f;
  f.path = decode_path(r);
  f.rising_source = r.boolean();
  f.length = r.i32();
  return f;
}

void encode(ByteWriter& w, const TargetFault& f) {
  encode(w, f.fault);
  w.u64(f.requirements.size());
  for (const ValueRequirement& vr : f.requirements) {
    w.u32(vr.line);
    encode(w, vr.value);
  }
}

TargetFault decode_target_fault(ByteReader& r) {
  TargetFault f;
  f.fault = decode_fault(r);
  const std::uint64_t n = r.length(r.u64(), sizeof(NodeId) + 3);
  f.requirements.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ValueRequirement vr;
    vr.line = r.u32();
    vr.value = decode_triple(r);
    f.requirements.push_back(vr);
  }
  return f;
}

void encode(ByteWriter& w, std::span<const TargetFault> faults) {
  w.u64(faults.size());
  for (const TargetFault& f : faults) encode(w, f);
}

std::vector<TargetFault> decode_target_faults(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64());
  std::vector<TargetFault> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_target_fault(r));
  return out;
}

void encode(ByteWriter& w, const LengthProfile& p) {
  w.u64(p.buckets().size());
  for (const LengthBucket& b : p.buckets()) {
    w.i32(b.length);
    w.u64(b.count);
    w.u64(b.cumulative);
  }
}

LengthProfile decode_length_profile(ByteReader& r) {
  // LengthProfile only constructs from raw lengths; expand the buckets back
  // into one length per item and rebuild — bit-identical because buckets are
  // a pure function of the multiset of lengths.
  const std::uint64_t n = r.length(r.u64(), 4 + 8 + 8);
  std::vector<int> lengths;
  std::uint64_t expected_total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const int length = r.i32();
    const std::uint64_t count = r.u64();
    const std::uint64_t cumulative = r.u64();
    expected_total += count;
    if (cumulative != expected_total) {
      throw SerdeError("inconsistent length profile cumulative count");
    }
    if (count > (1ULL << 32)) throw SerdeError("length bucket count too large");
    lengths.insert(lengths.end(), count, length);
  }
  LengthProfile out(lengths);
  if (out.buckets().size() != n) throw SerdeError("length profile mismatch");
  return out;
}

void encode(ByteWriter& w, const ScreenStats& s) {
  w.u64(s.input_faults);
  w.u64(s.conflict_dropped);
  w.u64(s.implication_dropped);
  w.u64(s.kept);
}

ScreenStats decode_screen_stats(ByteReader& r) {
  ScreenStats s;
  s.input_faults = r.u64();
  s.conflict_dropped = r.u64();
  s.implication_dropped = r.u64();
  s.kept = r.u64();
  return s;
}

void encode(ByteWriter& w, const TargetSets& ts) {
  encode(w, std::span<const TargetFault>(ts.p0));
  encode(w, std::span<const TargetFault>(ts.p1));
  w.u64(ts.i0);
  w.i32(ts.cutoff_length);
  encode(w, ts.profile);
  encode(w, ts.screen);
  w.u64(ts.enumerated_paths);
  w.boolean(ts.enumeration_truncated);
}

TargetSets decode_target_sets(ByteReader& r) {
  TargetSets ts;
  ts.p0 = decode_target_faults(r);
  ts.p1 = decode_target_faults(r);
  ts.i0 = r.u64();
  ts.cutoff_length = r.i32();
  ts.profile = decode_length_profile(r);
  ts.screen = decode_screen_stats(r);
  ts.enumerated_paths = r.u64();
  ts.enumeration_truncated = r.boolean();
  return ts;
}

void encode(ByteWriter& w, const GenerationResult& g) {
  encode(w, std::span<const TwoPatternTest>(g.tests));
  w.u64(g.detected.size());
  for (const std::vector<bool>& set : g.detected) encode_bool_vector(w, set);
  encode_bool_vector(w, g.detected_p0);
  encode_bool_vector(w, g.detected_p1);
  w.u64(g.primary_targets.size());
  for (std::size_t t : g.primary_targets) w.u64(t);
  w.u64(g.stats.primary_attempts);
  w.u64(g.stats.primary_failures);
  w.u64(g.stats.secondary_accepted);
  w.u64(g.stats.secondary_rejected);
  w.u64(g.stats.justify.attempts);
  w.u64(g.stats.justify.probes);
  w.u64(g.stats.justify.passes);
  w.u64(g.stats.justify.decisions);
  w.u64(g.stats.justify.successes);
  w.u64(g.stats.justify.failures);
  w.f64(g.stats.seconds);
}

GenerationResult decode_generation_result(ByteReader& r) {
  GenerationResult g;
  g.tests = decode_tests(r);
  const std::uint64_t sets = r.length(r.u64());
  g.detected.reserve(sets);
  for (std::uint64_t i = 0; i < sets; ++i) {
    g.detected.push_back(decode_bool_vector(r));
  }
  g.detected_p0 = decode_bool_vector(r);
  g.detected_p1 = decode_bool_vector(r);
  const std::uint64_t targets = r.length(r.u64());
  g.primary_targets.reserve(targets);
  for (std::uint64_t i = 0; i < targets; ++i) g.primary_targets.push_back(r.u64());
  g.stats.primary_attempts = r.u64();
  g.stats.primary_failures = r.u64();
  g.stats.secondary_accepted = r.u64();
  g.stats.secondary_rejected = r.u64();
  g.stats.justify.attempts = r.u64();
  g.stats.justify.probes = r.u64();
  g.stats.justify.passes = r.u64();
  g.stats.justify.decisions = r.u64();
  g.stats.justify.successes = r.u64();
  g.stats.justify.failures = r.u64();
  g.stats.seconds = r.f64();
  return g;
}

void encode(ByteWriter& w, const UnionCoverage& c) {
  w.u64(c.p0_detected);
  w.u64(c.p1_detected);
  w.u64(c.p0_total);
  w.u64(c.p1_total);
}

UnionCoverage decode_union_coverage(ByteReader& r) {
  UnionCoverage c;
  c.p0_detected = r.u64();
  c.p1_detected = r.u64();
  c.p0_total = r.u64();
  c.p1_total = r.u64();
  return c;
}

// ---- netlist ----------------------------------------------------------------

void encode(ByteWriter& w, const Netlist& nl) {
  w.str(nl.name());
  w.u64(nl.node_count());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    w.str(n.name);
    w.u8(static_cast<std::uint8_t>(n.type));
    w.u64(n.fanin.size());
    for (const NodeId f : n.fanin) w.u32(f);
    w.boolean(n.is_output);
  }
}

// ---- detection matrix -------------------------------------------------------

void encode(ByteWriter& w, const DetectionMatrix& m) {
  w.u64(m.fault_count());
  w.u64(m.test_count());
  w.u64(m.words_per_row());
  for (const std::uint64_t word : m.words()) w.u64(word);
}

DetectionMatrix decode_detection_matrix(ByteReader& r) {
  const std::uint64_t faults = r.u64();
  const std::uint64_t tests = r.u64();
  const std::uint64_t words_per_row = r.u64();
  if (words_per_row != (tests + 63) / 64) {
    throw SerdeError("detection matrix stride mismatch");
  }
  // Checked before the matrix is allocated, so a hostile header cannot drive
  // a huge allocation.
  if (faults != 0 &&
      words_per_row > r.remaining() / sizeof(std::uint64_t) / faults) {
    throw SerdeError("detection matrix exceeds record");
  }
  DetectionMatrix m(faults, tests);
  for (std::uint64_t f = 0; f < faults; ++f) {
    for (std::uint64_t& word : m.row(f)) word = r.u64();
  }
  if (!r.exhausted()) throw SerdeError("trailing bytes after detection matrix");
  return m;
}

// ---- digests ----------------------------------------------------------------

std::uint64_t digest(const Netlist& nl) {
  ByteWriter w;
  encode(w, nl);
  Hasher64 h;
  h.update_string("netlist");
  h.update(w.view().data(), w.view().size());
  return h.digest();
}

std::uint64_t digest(const TargetSetConfig& cfg) {
  Hasher64 h;
  h.update_string("target_set_config");
  h.update_u64(cfg.n_p);
  h.update_u64(cfg.n_p0);
  h.update_u8(static_cast<std::uint8_t>(cfg.sensitization));
  h.update_u64(cfg.stem_weights.size());
  for (const int wgt : cfg.stem_weights) {
    h.update_u32(static_cast<std::uint32_t>(wgt));
  }
  h.update_u64(cfg.enumeration.max_faults);
  h.update_u32(static_cast<std::uint32_t>(cfg.enumeration.faults_per_path));
  h.update_u8(static_cast<std::uint8_t>(cfg.enumeration.selection));
  h.update_u8(static_cast<std::uint8_t>(cfg.enumeration.prune));
  h.update_u64(cfg.enumeration.max_steps);
  h.update_u64(cfg.enumeration.hard_cap_factor);
  h.update_u8(cfg.enumeration.record_trace ? 1 : 0);
  return h.digest();
}

std::uint64_t digest(const GeneratorConfig& cfg) {
  Hasher64 h;
  h.update_string("generator_config");
  h.update_u8(static_cast<std::uint8_t>(cfg.heuristic));
  h.update_u64(cfg.seed);
  h.update_u32(static_cast<std::uint32_t>(cfg.justify.max_attempts));
  h.update_u8(cfg.justify.use_implication_seed ? 1 : 0);
  // The byte of the Arbitrary-shuffle switch, which was always on; the
  // shuffle is now unconditional, and hashing the constant keeps every
  // GeneratorConfig key unchanged.
  h.update_u8(1);
  h.update_u64(cfg.max_consecutive_secondary_failures);
  h.update_u8(cfg.use_branch_and_bound ? 1 : 0);
  h.update_u64(cfg.bnb.max_backtracks);
  h.update_u8(cfg.bnb.use_implication_seed ? 1 : 0);
  return h.digest();
}

std::uint64_t digest(std::span<const TwoPatternTest> tests) {
  ByteWriter w;
  encode(w, tests);
  Hasher64 h;
  h.update_string("test_set");
  h.update(w.view().data(), w.view().size());
  return h.digest();
}

std::uint64_t digest(std::span<const TargetFault> faults) {
  ByteWriter w;
  encode(w, faults);
  Hasher64 h;
  h.update_string("fault_set");
  h.update(w.view().data(), w.view().size());
  return h.digest();
}

}  // namespace pdf::store
