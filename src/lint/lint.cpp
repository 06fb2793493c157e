#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/json.h"

namespace adapt::lint {
namespace {

bool is_word(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// 1-based line number of byte offset `pos`.
std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

/// True when `path` (already forward-slashed) has `dir` as a component
/// prefix anywhere, e.g. path_contains("a/src/obs/x.h", "src/obs/").
bool path_contains(std::string_view path, std::string_view dir) {
  return path.find(dir) != std::string_view::npos;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string normalized(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

/// Suppressions: (1-based line) -> rule names allowed on that line or the
/// one below it. Collected from the raw source so comment placement works.
using AllowMap = std::map<std::size_t, std::set<std::string>>;

AllowMap collect_allows(std::string_view source) {
  AllowMap allows;
  static constexpr std::string_view kMarker = "ADAPT_LINT_ALLOW(";
  std::size_t line = 1;
  std::size_t start = 0;
  while (start <= source.size()) {
    std::size_t eol = source.find('\n', start);
    if (eol == std::string_view::npos) eol = source.size();
    const std::string_view text = source.substr(start, eol - start);
    std::size_t at = 0;
    while ((at = text.find(kMarker, at)) != std::string_view::npos) {
      const std::size_t name_begin = at + kMarker.size();
      const std::size_t close = text.find(')', name_begin);
      if (close != std::string_view::npos) {
        allows[line].emplace(text.substr(name_begin, close - name_begin));
      }
      at = name_begin;
    }
    line += 1;
    start = eol + 1;
  }
  return allows;
}

bool is_allowed(const AllowMap& allows, std::size_t line,
                std::string_view rule) {
  for (const std::size_t l : {line, line > 1 ? line - 1 : line}) {
    const auto it = allows.find(l);
    if (it != allows.end() && it->second.count(std::string(rule)) != 0) {
      return true;
    }
  }
  return false;
}

/// Finds the next occurrence of identifier `token` at or after `from`,
/// word-bounded on both sides. Returns npos when absent.
std::size_t find_token(std::string_view text, std::string_view token,
                       std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !is_word(text[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

/// Like find_token, but additionally requires the token to be followed
/// (after optional whitespace) by one of the characters in `next`.
std::size_t find_call_token(std::string_view text, std::string_view token,
                            std::string_view next, std::size_t from) {
  std::size_t pos = from;
  while ((pos = find_token(text, token, pos)) != std::string_view::npos) {
    std::size_t after = pos + token.size();
    while (after < text.size() &&
           (text[after] == ' ' || text[after] == '\t')) {
      after += 1;
    }
    if (after < text.size() &&
        next.find(text[after]) != std::string_view::npos) {
      return pos;
    }
    pos += 1;
  }
  return std::string_view::npos;
}

/// Byte range of the function body attached to the declarator that starts
/// at `from`: the first '{' at parenthesis depth 0, through its matching
/// '}'. Returns false when a ';' (pure declaration) or '}' intervenes.
bool find_body(std::string_view text, std::size_t from, std::size_t& begin,
               std::size_t& end) {
  int paren = 0;
  std::size_t i = from;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(') paren += 1;
    if (c == ')') paren -= 1;
    if (paren != 0) continue;
    if (c == ';' || c == '}') return false;
    if (c == '{') break;
  }
  if (i >= text.size()) return false;
  begin = i + 1;
  int depth = 1;
  for (i = begin; i < text.size(); ++i) {
    if (text[i] == '{') depth += 1;
    if (text[i] == '}' && --depth == 0) {
      end = i;
      return true;
    }
  }
  return false;
}

struct RuleContext {
  std::string_view path;     ///< normalized, forward slashes
  std::string_view text;     ///< stripped source
  std::string_view raw;      ///< original source
  std::string_view companion;  ///< stripped companion header, or empty
  const AllowMap& allows;
  std::vector<Finding>& out;
};

void report(const RuleContext& ctx, std::string_view rule, std::size_t pos,
            std::string message) {
  const std::size_t line = line_of(ctx.text, pos);
  if (is_allowed(ctx.allows, line, rule)) return;
  ctx.out.push_back(Finding{std::string(rule), std::string(ctx.path), line,
                            std::move(message)});
}

// ---------------------------------------------------------------------------
// hot-alloc: no direct allocation inside ADAPT_HOT function bodies.

void rule_hot_alloc(const RuleContext& ctx) {
  // Identifiers that allocate when called (or instantiated, for the
  // make_* templates). Matched as calls so a member named e.g.
  // `reserve_blocks` cannot trip the rule.
  static constexpr std::string_view kAllocCalls[] = {
      "push_back", "emplace_back", "resize",      "reserve",
      "assign",    "insert",       "emplace",     "make_unique",
      "make_shared", "to_string",  "malloc",      "calloc",
      "realloc",   "strdup",
  };
  std::size_t pos = 0;
  while ((pos = find_token(ctx.text, "ADAPT_HOT", pos)) !=
         std::string_view::npos) {
    const std::size_t mark = pos;
    pos += 1;
    // Skip the macro's own definition (and any redefinition).
    const std::size_t bol = ctx.text.rfind('\n', mark);
    const std::string_view line_prefix =
        ctx.text.substr(bol == std::string_view::npos ? 0 : bol + 1,
                        mark - (bol == std::string_view::npos ? 0 : bol + 1));
    if (line_prefix.find('#') != std::string_view::npos) continue;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    if (!find_body(ctx.text, mark, body_begin, body_end)) continue;
    const std::string_view body =
        ctx.text.substr(body_begin, body_end - body_begin);
    for (const std::string_view call : kAllocCalls) {
      std::size_t at = 0;
      while ((at = find_call_token(body, call, "(<", at)) !=
             std::string_view::npos) {
        report(ctx, kRuleHotAlloc, body_begin + at,
               "allocation call '" + std::string(call) +
                   "' inside an ADAPT_HOT function body");
        at += 1;
      }
    }
    std::size_t at = 0;
    while ((at = find_token(body, "new", at)) != std::string_view::npos) {
      report(ctx, kRuleHotAlloc, body_begin + at,
             "'new' inside an ADAPT_HOT function body");
      at += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// trace-emit-guard: emit() call sites need a sink-attached null check close
// enough that the event's argument construction stays behind it.

void rule_trace_emit_guard(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/obs/") ||
      ends_with(ctx.path, "trace_sink.h")) {
    return;  // the sink layer itself: definitions, not call sites
  }
  static constexpr std::size_t kWindow = 240;
  std::size_t pos = 0;
  while ((pos = find_call_token(ctx.text, "emit", "(", pos)) !=
         std::string_view::npos) {
    const std::size_t begin = pos > kWindow ? pos - kWindow : 0;
    const std::string_view window = ctx.text.substr(begin, pos - begin);
    if (window.find("nullptr") == std::string_view::npos) {
      report(ctx, kRuleTraceEmitGuard, pos,
             "emit() call without a preceding sink != nullptr guard");
    }
    pos += 1;
  }
}

// ---------------------------------------------------------------------------
// naked-threading: std threading primitives only inside src/common/.

void rule_naked_threading(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/common/")) return;
  static constexpr std::string_view kPrimitives[] = {
      "std::mutex",
      "std::recursive_mutex",
      "std::timed_mutex",
      "std::shared_mutex",
      "std::condition_variable",
      "std::condition_variable_any",
      "std::thread",
      "std::jthread",
      "std::lock_guard",
      "std::unique_lock",
      "std::scoped_lock",
      "std::shared_lock",
  };
  for (const std::string_view prim : kPrimitives) {
    std::size_t pos = 0;
    while ((pos = ctx.text.find(prim, pos)) != std::string_view::npos) {
      const bool left_ok = pos == 0 || (!is_word(ctx.text[pos - 1]) &&
                                        ctx.text[pos - 1] != ':');
      const std::size_t end = pos + prim.size();
      const bool right_ok = end >= ctx.text.size() || !is_word(ctx.text[end]);
      if (left_ok && right_ok) {
        report(ctx, kRuleNakedThreading, pos,
               std::string(prim) +
                   " outside src/common/ (use the adapt::Mutex / "
                   "adapt::Thread wrappers from common/sync.h)");
      }
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// nondeterminism: unseeded randomness and wall-clock entropy sources are
// banned outside the seeded PRNG module.

void rule_nondeterminism(const RuleContext& ctx) {
  if (path_contains(ctx.path, "src/common/rng.")) return;
  static constexpr std::string_view kCalls[] = {"rand", "srand", "time"};
  for (const std::string_view call : kCalls) {
    std::size_t pos = 0;
    while ((pos = find_call_token(ctx.text, call, "(", pos)) !=
           std::string_view::npos) {
      std::string msg = "'";
      msg += call;
      msg +=
          "()' is nondeterministic; derive randomness from a seeded "
          "adapt::Rng";
      report(ctx, kRuleNondeterminism, pos, std::move(msg));
      pos += 1;
    }
  }
  static constexpr std::string_view kTypes[] = {"random_device", "mt19937",
                                                "mt19937_64"};
  for (const std::string_view type : kTypes) {
    std::size_t pos = 0;
    while ((pos = find_token(ctx.text, type, pos)) !=
           std::string_view::npos) {
      std::string msg = "'";
      msg += type;
      msg +=
          "' is nondeterministic; derive randomness from a seeded "
          "adapt::Rng";
      report(ctx, kRuleNondeterminism, pos, std::move(msg));
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// header-hygiene: src/ headers use #pragma once and directly include
// the standard headers behind the tokens they use (IWYU-lite). Originally
// scoped to src/lss/ while the rule bedded in; now the whole tree.

void rule_header_hygiene(const RuleContext& ctx) {
  if (!path_contains(ctx.path, "src/") || !ends_with(ctx.path, ".h")) {
    return;
  }
  if (ctx.raw.find("#pragma once") == std::string_view::npos) {
    report(ctx, kRuleHeaderHygiene, 0, "header is missing #pragma once");
  }
  // token -> required standard header. Small on purpose: only tokens whose
  // home header is unambiguous.
  static constexpr std::pair<std::string_view, std::string_view> kNeeds[] = {
      {"std::vector", "vector"},
      {"std::string_view", "string_view"},
      {"std::string", "string"},
      {"std::uint8_t", "cstdint"},
      {"std::uint16_t", "cstdint"},
      {"std::uint32_t", "cstdint"},
      {"std::uint64_t", "cstdint"},
      {"std::int32_t", "cstdint"},
      {"std::int64_t", "cstdint"},
      {"std::size_t", "cstddef"},
      {"std::ptrdiff_t", "cstddef"},
      {"std::span", "span"},
      {"std::function", "functional"},
      {"std::pair", "utility"},
      {"std::numeric_limits", "limits"},
      {"std::logic_error", "stdexcept"},
      {"std::runtime_error", "stdexcept"},
      {"std::invalid_argument", "stdexcept"},
      {"std::out_of_range", "stdexcept"},
      {"std::unique_ptr", "memory"},
      {"std::make_unique", "memory"},
      {"std::shared_ptr", "memory"},
      {"std::optional", "optional"},
  };
  std::set<std::string_view> reported;
  for (const auto& [token, header] : kNeeds) {
    const std::size_t pos = find_token(ctx.text, token, 0);
    if (pos == std::string_view::npos) continue;
    if (reported.count(header) != 0) continue;
    const std::string include_line = "#include <" + std::string(header) + ">";
    if (ctx.raw.find(include_line) == std::string_view::npos) {
      reported.insert(header);
      report(ctx, kRuleHeaderHygiene, pos,
             "uses " + std::string(token) + " but does not include <" +
                 std::string(header) + ">");
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iteration: no range-for over a std::unordered_* container. Its
// visiting order is the hash table's layout, so anything computed from it
// (a victim choice, a tie-break, an output order) silently depends on the
// standard library, the bucket count and the insertion history.

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Adds to `names` every identifier `text` declares with a std::unordered_*
/// type: the name after the closing '>' of the template arguments,
/// skipping cv/ref/pointer tokens. Nested names like `::iterator` are not
/// containers and are skipped.
void collect_unordered_names(std::string_view text,
                             std::set<std::string, std::less<>>& names) {
  static constexpr std::string_view kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const std::string_view type : kTypes) {
    std::size_t pos = 0;
    while ((pos = find_token(text, type, pos)) != std::string_view::npos) {
      const std::size_t at = pos;
      pos += 1;
      if (at < 5 || text.substr(at - 5, 5) != "std::") continue;
      std::size_t i = at + type.size();
      while (i < text.size() && is_space(text[i])) ++i;
      if (i >= text.size() || text[i] != '<') continue;
      int depth = 0;
      for (; i < text.size(); ++i) {
        if (text[i] == '<') depth += 1;
        if (text[i] == '>' && --depth == 0) break;
      }
      if (i >= text.size()) continue;
      i += 1;
      for (;;) {
        while (i < text.size() && (is_space(text[i]) || text[i] == '&' ||
                                   text[i] == '*')) {
          ++i;
        }
        if (text.substr(i, 5) == "const" &&
            (i + 5 >= text.size() || !is_word(text[i + 5]))) {
          i += 5;
          continue;
        }
        break;
      }
      const std::size_t name_begin = i;
      while (i < text.size() && is_word(text[i])) ++i;
      if (i > name_begin) {
        names.emplace(text.substr(name_begin, i - name_begin));
      }
    }
  }
}

/// The container a range-for's range expression names: the last member of
/// a plain `a`, `*a`, `this->a`, `x.a` or `p->a` chain, or empty for any
/// other expression (calls, subscripts, casts).
std::string_view ranged_name(std::string_view expr) {
  while (!expr.empty() && is_space(expr.front())) expr.remove_prefix(1);
  while (!expr.empty() && is_space(expr.back())) expr.remove_suffix(1);
  if (!expr.empty() && expr.front() == '*') expr.remove_prefix(1);
  std::size_t last = 0;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (is_word(c)) continue;
    if (c == '.') {
      last = i + 1;
    } else if (c == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      last = i + 2;
      ++i;
    } else {
      return {};
    }
  }
  return expr.substr(last);
}

void rule_unordered_iteration(const RuleContext& ctx) {
  std::set<std::string, std::less<>> names;
  collect_unordered_names(ctx.text, names);
  collect_unordered_names(ctx.companion, names);
  if (names.empty()) return;
  std::size_t pos = 0;
  while ((pos = find_call_token(ctx.text, "for", "(", pos)) !=
         std::string_view::npos) {
    const std::size_t open = ctx.text.find('(', pos);
    pos += 1;
    // The range-for colon: the last top-level single ':' (not '::') after
    // any init-statement, inside the for's own parentheses.
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = open;
    for (std::size_t i = open; i < ctx.text.size(); ++i) {
      const char c = ctx.text[i];
      if (c == '(' || c == '[' || c == '{') depth += 1;
      if (c == ')' || c == ']' || c == '}') depth -= 1;
      if (depth == 0) {
        close = i;
        break;
      }
      if (depth != 1) continue;
      if (c == ';') colon = std::string_view::npos;
      const bool scope = (i + 1 < ctx.text.size() && ctx.text[i + 1] == ':') ||
                         ctx.text[i - 1] == ':';
      if (c == ':' && !scope) colon = i;
    }
    if (colon == std::string_view::npos || close <= colon) continue;
    const std::string_view name =
        ranged_name(ctx.text.substr(colon + 1, close - colon - 1));
    if (name.empty() || names.find(name) == names.end()) continue;
    report(ctx, kRuleUnorderedIteration, colon + 1,
           "range-for over std::unordered_* container '" + std::string(name) +
               "' visits elements in hash-table layout order; iterate a "
               "sorted or insertion-ordered structure instead");
  }
}

}  // namespace

const std::vector<std::string_view>& all_rules() {
  static const std::vector<std::string_view> kRules = {
      kRuleHotAlloc,        kRuleTraceEmitGuard, kRuleNakedThreading,
      kRuleNondeterminism,  kRuleHeaderHygiene,  kRuleUnorderedIteration};
  return kRules;
}

std::string strip_comments_and_strings(std::string_view source) {
  std::string out(source);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;  // the quote itself stays
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          i += 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          i += 1;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source,
                                 std::string_view companion_header) {
  const std::string norm = normalized(path);
  const std::string stripped = strip_comments_and_strings(source);
  const std::string companion = strip_comments_and_strings(companion_header);
  const AllowMap allows = collect_allows(source);
  std::vector<Finding> findings;
  const RuleContext ctx{norm, stripped, source, companion, allows, findings};
  rule_hot_alloc(ctx);
  rule_trace_emit_guard(ctx);
  rule_naked_threading(ctx);
  rule_nondeterminism(ctx);
  rule_header_hygiene(ctx);
  rule_unordered_iteration(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& l, const Finding& r) {
              return std::tie(l.line, l.rule, l.message) <
                     std::tie(r.line, r.rule, r.message);
            });
  return findings;
}

Result lint_tree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (!fs::exists(p)) {
      throw std::runtime_error("adapt_lint: no such path: " + root);
    }
    if (fs::is_regular_file(p)) {
      files.push_back(p.generic_string());
      continue;
    }
    fs::recursive_directory_iterator it(p);
    const fs::recursive_directory_iterator end;
    for (; it != end; ++it) {
      const std::string name = it->path().filename().generic_string();
      if (it->is_directory()) {
        if (name == "build" || (!name.empty() && name[0] == '.')) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().generic_string();
      if (ext == ".h" || ext == ".cpp") {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Result result;
  result.files_scanned = files.size();
  const auto read = [](const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("adapt_lint: cannot read " + file);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  for (const std::string& file : files) {
    const std::string source = read(file);
    std::string companion;
    if (ends_with(file, ".cpp")) {
      const std::string header = file.substr(0, file.size() - 4) + ".h";
      if (fs::is_regular_file(header)) companion = read(header);
    }
    std::vector<Finding> findings = lint_source(file, source, companion);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& l, const Finding& r) {
              return std::tie(l.file, l.line, l.rule, l.message) <
                     std::tie(r.file, r.line, r.rule, r.message);
            });
  return result;
}

std::string findings_json(const Result& result) {
  using obs::json::quote;
  std::string out = "{";
  out += quote("schema");
  out += ':';
  out += quote(kLintSchema);
  out += ',';
  out += quote("files_scanned");
  out += ':';
  out += std::to_string(result.files_scanned);
  out += ',';
  out += quote("rules");
  out += ":[";
  bool first = true;
  for (const std::string_view rule : all_rules()) {
    if (!first) out += ',';
    first = false;
    out += quote(rule);
  }
  out += "],";
  out += quote("findings");
  out += ":[";
  first = true;
  for (const Finding& f : result.findings) {
    if (!first) out += ',';
    first = false;
    out += '{';
    out += quote("rule");
    out += ':';
    out += quote(f.rule);
    out += ',';
    out += quote("file");
    out += ':';
    out += quote(f.file);
    out += ',';
    out += quote("line");
    out += ':';
    out += std::to_string(f.line);
    out += ',';
    out += quote("message");
    out += ':';
    out += quote(f.message);
    out += '}';
  }
  out += "]}";
  return out;
}

void validate_lint_json(std::string_view text) {
  const obs::json::Value doc = obs::json::parse(text);
  if (!doc.is_object()) {
    throw std::invalid_argument("schema: lint report must be an object");
  }
  const obs::json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kLintSchema) {
    throw std::invalid_argument("schema: expected \"" +
                                std::string(kLintSchema) + '"');
  }
  const obs::json::Value* scanned = doc.find("files_scanned");
  if (scanned == nullptr || !scanned->is_number()) {
    throw std::invalid_argument("schema: files_scanned must be a number");
  }
  const obs::json::Value* rules = doc.find("rules");
  if (rules == nullptr || !rules->is_array()) {
    throw std::invalid_argument("schema: rules must be an array");
  }
  for (const obs::json::Value& rule : rules->items()) {
    if (!rule.is_string()) {
      throw std::invalid_argument("schema: rules entries must be strings");
    }
  }
  const obs::json::Value* findings = doc.find("findings");
  if (findings == nullptr || !findings->is_array()) {
    throw std::invalid_argument("schema: findings must be an array");
  }
  std::size_t index = 0;
  for (const obs::json::Value& f : findings->items()) {
    const std::string where = "findings[" + std::to_string(index++) + "]";
    if (!f.is_object()) {
      throw std::invalid_argument("schema: " + where + " must be an object");
    }
    for (const char* key : {"rule", "file", "message"}) {
      const obs::json::Value* v = f.find(key);
      if (v == nullptr || !v->is_string()) {
        throw std::invalid_argument("schema: " + where + '.' + key +
                                    " must be a string");
      }
    }
    const obs::json::Value* line = f.find("line");
    if (line == nullptr || !line->is_number()) {
      throw std::invalid_argument("schema: " + where +
                                  ".line must be a number");
    }
  }
}

}  // namespace adapt::lint
