// One enrichment job, start to finish, on the calling thread.
//
// run_job() is the single execution path shared by the Server workers and
// `pdf_serve --once`: netlist resolution (registry name or inline .bench
// text), EnrichmentWorkbench construction against the shared StageCache warm
// tier, generation, coverage, and the deterministic result object. Because
// both entry points go through this function, a daemon answer for a job is
// byte-identical to the single-shot CLI answer for the same job — the CI
// serve-smoke job diffs exactly that.
//
// run_job never throws: every failure is folded into a typed error response
// via classify_error(). Telemetry (run_ns, cache deltas, the optional
// manifest) lands in the response envelope, never inside `result`.
#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace pdf::store {
class StageCache;
}

namespace pdf::serve {

/// Server-wide execution context shared by every job.
struct JobContext {
  /// Shared warm tier; null = caching disabled.
  store::StageCache* cache = nullptr;
  std::string store_dir;  // manifest bookkeeping only
  /// When non-empty, every job writes `job-<serial>.json` (a full
  /// pdf.run_manifest/1 document) into this directory.
  std::string manifest_dir;
};

/// Runs `req` (kind Enrich or Basic) to completion. `serial` is the
/// server-assigned job number used to name the manifest file uniquely under
/// concurrent sessions; pass 0 from single-shot callers.
Response run_job(const Request& req, const JobContext& ctx,
                 std::uint64_t serial = 0);

/// Canonical circuit label for a request: the registry name, or
/// "inline:<netlist digest>" for inline .bench jobs (deterministic, so it is
/// safe inside `result`). Parses the bench text; throws like run_job's
/// netlist resolution does.
std::string job_circuit_label(const Request& req);

}  // namespace pdf::serve
