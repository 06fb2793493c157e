// adapt_lint: a deterministic, libclang-free scanner for project
// invariants that generic linters cannot express.
//
// The rules encode contracts the rest of the codebase relies on:
//
//   hot-alloc        ADAPT_HOT function bodies must not contain direct
//                    allocation calls (new, push_back, reserve, ...). The
//                    zero-steady-state-allocation property (asserted at
//                    runtime by micro_engine_hotpath's operator-new
//                    interposer) becomes a compile-time-adjacent check.
//   trace-emit-guard Every TraceSink emit() call site must sit behind an
//                    explicit sink-attached null check, so event argument
//                    construction is dead when tracing is detached.
//   naked-threading  std::mutex / std::thread / lock types may only be
//                    named in src/common/ — everything else goes through
//                    the capability-annotated adapt::Mutex wrappers.
//   nondeterminism   rand()/srand()/time()/std::random_device/mt19937 are
//                    banned outside src/common/rng.* — all randomness
//                    flows from seeded adapt::Rng instances.
//   header-hygiene   src/ headers must use #pragma once and directly
//                    include the standard headers they use (IWYU-lite over
//                    a small token -> header map).
//   unordered-iteration
//                    no range-for over a name declared as std::unordered_*
//                    in the same file or its companion header: iteration
//                    order is the hash table's layout, which differs across
//                    standard libraries, bucket counts and insertion
//                    histories, so results must never depend on it.
//
// A finding can be suppressed with a comment on the finding line or the
// line immediately above it:  // ADAPT_LINT_ALLOW(rule-name) — every
// suppression should say why in the surrounding comment.
//
// The scanner strips comments and string/char literals (preserving line
// structure) before matching, and all matching is word-boundary exact, so
// the engine has no false positives from identifiers that merely contain a
// banned token. It is pure string processing: same input, same findings,
// byte for byte.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace adapt::lint {

inline constexpr std::string_view kLintSchema = "adapt-lint-v1";

/// Rule identifiers (stable: they appear in findings JSON and ALLOW
/// comments).
inline constexpr std::string_view kRuleHotAlloc = "hot-alloc";
inline constexpr std::string_view kRuleTraceEmitGuard = "trace-emit-guard";
inline constexpr std::string_view kRuleNakedThreading = "naked-threading";
inline constexpr std::string_view kRuleNondeterminism = "nondeterminism";
inline constexpr std::string_view kRuleHeaderHygiene = "header-hygiene";
inline constexpr std::string_view kRuleUnorderedIteration =
    "unordered-iteration";

/// Every rule id, in report order.
const std::vector<std::string_view>& all_rules();

struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;  ///< 1-based
  std::string message;
};

struct Result {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
};

/// Replaces comments and string/char literal contents with spaces,
/// preserving every newline so byte offsets map to the same line numbers
/// as the original. Exposed for the rule-engine unit tests.
std::string strip_comments_and_strings(std::string_view source);

/// Lints one translation unit. `path` is the repo-relative path (forward
/// slashes); it drives the per-rule scope exemptions documented above.
/// `companion_header` is the source of the matching .h for a .cpp (empty
/// when there is none); only its declarations are read, never linted.
std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source,
                                 std::string_view companion_header = {});

/// Walks `roots` (files or directories; directories recurse over *.h and
/// *.cpp, skipping any directory component named "build" or starting with
/// '.'), lints every file (each foo.cpp with foo.h beside it, if any, as
/// its companion header), and returns the merged result with findings
/// ordered by (file, line, rule). Paths in findings are as discovered.
/// Throws std::runtime_error when a root does not exist.
Result lint_tree(const std::vector<std::string>& roots);

/// Renders `result` as an adapt-lint-v1 JSON document.
std::string findings_json(const Result& result);

/// Throws std::invalid_argument unless `text` is a well-formed
/// adapt-lint-v1 document (schema tag, files_scanned, rules list, and
/// per-finding field requirements).
void validate_lint_json(std::string_view text);

}  // namespace adapt::lint
