#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "internal.hpp"
#include "lint.hpp"

namespace parcel::lint {
namespace internal {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, char c) {
  return t.kind == TokenKind::kPunct && t.text[0] == c;
}

std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], '<')) ++depth;
    if (is_punct(toks[i], '>') && --depth == 0) return i + 1;
  }
  return i;
}

namespace {

// The call-site heuristics below look one token back: `.time(` / `->time(`
// are member calls on project types (deterministic by construction) and
// are not flagged; `std::time(` and bare `time(` are.
bool preceded_by_member_access(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  if (is_punct(toks[i - 1], '.')) return true;
  if (i >= 2 && is_punct(toks[i - 1], '>') && is_punct(toks[i - 2], '-'))
    return true;
  return false;
}

bool followed_by_call(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() && is_punct(toks[i + 1], '(');
}

// `double time() const` declares a project method named time(); the token
// before the name is its return type.  A *call* is preceded by punctuation
// (`;`, `=`, `(`, `,`, `:`) or a statement keyword like `return` — never
// by a plain type name.
bool preceded_by_type_name(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return false;
  const Token& p = toks[i - 1];
  if (p.kind != TokenKind::kIdentifier) return false;
  static const std::set<std::string> kStatementKeywords = {
      "return", "throw", "case", "else", "do", "goto", "co_return",
      "co_await", "co_yield"};
  return kStatementKeywords.count(p.text) == 0;
}

}  // namespace

void collect_unordered(const std::vector<Token>& toks, UnorderedDecls& out) {
  out.types.insert({"unordered_map", "unordered_set", "unordered_multimap",
                    "unordered_multiset"});
  // Pass 1: `using Alias = ... unordered_* ... ;` makes Alias unordered too.
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "using") ||
        toks[i + 1].kind != TokenKind::kIdentifier ||
        !is_punct(toks[i + 2], '=')) {
      continue;
    }
    for (std::size_t j = i + 3; j < toks.size() && !is_punct(toks[j], ';');
         ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          out.types.count(toks[j].text) > 0) {
        out.types.insert(toks[i + 1].text);
        break;
      }
    }
  }
  // Pass 2: declarations `UnorderedType<...> [*&|const] name`.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        out.types.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], '<'))
      j = skip_template_args(toks, j);
    while (j < toks.size() &&
           (is_punct(toks[j], '&') || is_punct(toks[j], '*') ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokenKind::kIdentifier &&
        out.types.count(toks[j].text) == 0) {
      out.vars.insert(toks[j].text);
    }
  }
}

void collect_nondet_events(const std::vector<Token>& toks,
                           std::vector<RawEvent>& out) {
  static const std::set<std::string> kRandomAlways = {"random_device"};
  static const std::set<std::string> kRandomCalls = {
      "rand", "srand", "drand48", "lrand48", "random_shuffle"};
  static const std::set<std::string> kClockTypes = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kTimeCalls = {
      "time",   "clock",     "gettimeofday", "clock_gettime",
      "localtime", "gmtime", "mktime"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (kRandomAlways.count(t.text) > 0) {
      out.push_back({"nondet-random", t.text, t.line});
    } else if (kRandomCalls.count(t.text) > 0 && followed_by_call(toks, i) &&
               !preceded_by_member_access(toks, i) &&
               !preceded_by_type_name(toks, i)) {
      out.push_back({"nondet-random", t.text, t.line});
    }
    if (kClockTypes.count(t.text) > 0) {
      out.push_back({"nondet-time", t.text, t.line});
    } else if (kTimeCalls.count(t.text) > 0 && followed_by_call(toks, i) &&
               !preceded_by_member_access(toks, i) &&
               !preceded_by_type_name(toks, i)) {
      out.push_back({"nondet-time", t.text, t.line});
    }
    if (t.text == "getenv" || t.text == "secure_getenv") {
      out.push_back({"nondet-getenv", t.text, t.line});
    }
  }
}

void collect_unordered_events(const std::vector<Token>& toks,
                              const UnorderedDecls& decls,
                              std::vector<RawEvent>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression mentions an unordered variable.
    if (is_ident(toks[i], "for") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], '(')) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = toks.size();
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], '(')) ++depth;
        if (is_punct(toks[j], ')') && --depth == 0) {
          close = j;
          break;
        }
        // A single ':' at depth 1 is the range-for separator; '::' is not.
        if (depth == 1 && is_punct(toks[j], ':') && colon == 0 &&
            !(j > 0 && is_punct(toks[j - 1], ':')) &&
            !(j + 1 < toks.size() && is_punct(toks[j + 1], ':'))) {
          colon = j;
        }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == TokenKind::kIdentifier &&
              decls.vars.count(toks[j].text) > 0) {
            out.push_back({"unordered-iter", toks[j].text, toks[j].line});
            break;
          }
        }
      }
    }
    // Explicit iterator walk: var.begin()/cbegin().  A bare end()/cend()
    // is not flagged — `find(k) != end()` is the dominant lookup idiom
    // and never observes iteration order.
    if (toks[i].kind == TokenKind::kIdentifier &&
        decls.vars.count(toks[i].text) > 0 && i + 2 < toks.size() &&
        is_punct(toks[i + 1], '.') &&
        toks[i + 2].kind == TokenKind::kIdentifier) {
      const std::string& m = toks[i + 2].text;
      if ((m == "begin" || m == "cbegin") && followed_by_call(toks, i + 2)) {
        out.push_back({"unordered-iter", toks[i].text, toks[i].line});
      }
    }
  }
}

std::string direct_message(const std::string& rule, const std::string& token) {
  if (rule == "nondet-random") {
    if (token == "random_device") {
      return "'" + token + "' is a nondeterministic seed source; derive "
             "seeds from util::Rng / the run config instead";
    }
    return "'" + token + "()' breaks replay determinism; use util::Rng "
           "streams forked from the run seed";
  }
  if (rule == "nondet-time") {
    if (token == "system_clock" || token == "steady_clock" ||
        token == "high_resolution_clock") {
      return "'std::chrono::" + token + "' reads the wall clock; simulated "
             "time must come from sim::Scheduler::now()";
    }
    return "'" + token + "()' reads the wall clock; simulated time must "
           "come from sim::Scheduler::now()";
  }
  if (rule == "nondet-getenv") {
    return "'" + token + "' makes behaviour depend on the environment; "
           "simulation code takes settings from its config, bench mains "
           "may read env toggles under a reasoned allow";
  }
  // unordered-iter
  return "iteration over unordered container '" + token +
         "': iteration order is hash-seed dependent and leaks into "
         "results/traces; use std::map/std::vector or sort first";
}

bool suppression_covers(const LexOutput& lx, const std::string& rule,
                        int line) {
  for (const Suppression& s : lx.suppressions) {
    if (s.rule != rule || s.reason.empty()) continue;
    if (s.line == line || (s.standalone && s.line + 1 == line)) return true;
  }
  return false;
}

}  // namespace internal

namespace {

using internal::is_ident;
using internal::is_punct;

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

void add(FileReport& rep, const std::string& path, int line,
         const char* rule, std::string message) {
  rep.findings.push_back({path, line, rule, std::move(message)});
}

void check_header_hygiene(const std::string& path,
                          const std::vector<Token>& toks, const Config& cfg,
                          FileReport& rep) {
  if (!is_header(path)) return;
  if (cfg.applies("header-pragma-once", path)) {
    const bool ok = toks.size() >= 3 && is_punct(toks[0], '#') &&
                    is_ident(toks[1], "pragma") && is_ident(toks[2], "once");
    if (!ok) {
      add(rep, path, 1, "header-pragma-once",
          "header must start with '#pragma once' (before any other code)");
    }
  }
  if (cfg.applies("header-using-namespace", path)) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (is_ident(toks[i], "using") && is_ident(toks[i + 1], "namespace")) {
        add(rep, path, toks[i].line, "header-using-namespace",
            "'using namespace' in a header pollutes every includer; "
            "qualify names instead");
      }
    }
  }
}

void check_float_drift(const std::string& path, const std::vector<Token>& toks,
                       FileReport& rep) {
  for (const Token& t : toks) {
    if (is_ident(t, "float")) {
      add(rep, path, t.line, "float-double-drift",
          "'float' in an accounting path: energy/byte arithmetic must stay "
          "double end-to-end or replay sums drift across platforms");
    }
  }
}

// Per-file rules over one lexed file: direct nondet/unordered events plus
// header hygiene and float drift.  `decls` already merges the companion.
void lint_one_file(const std::string& path, const LexOutput& lx,
                   const internal::UnorderedDecls& decls, const Config& config,
                   FileReport& rep) {
  std::vector<internal::RawEvent> events;
  internal::collect_nondet_events(lx.tokens, events);
  if (config.applies("unordered-iter", path)) {
    internal::collect_unordered_events(lx.tokens, decls, events);
  }
  for (const internal::RawEvent& e : events) {
    if (!config.applies(e.rule, path)) continue;
    add(rep, path, e.line, e.rule.c_str(),
        internal::direct_message(e.rule, e.token));
  }
  check_header_hygiene(path, lx.tokens, config, rep);
  if (config.applies("float-double-drift", path)) {
    check_float_drift(path, lx.tokens, rep);
  }
}

// Validate suppressions, apply them to `rep`'s findings for `path`, and
// report unexplained allow(...) comments.  A typo'd rule id must be a
// hard error (exit 2), or the gate it meant to bypass silently stays off.
void apply_suppressions(const std::string& path, const LexOutput& lx,
                        const Config& config, FileReport& rep) {
  for (const Suppression& s : lx.suppressions) {
    if (!is_known_rule(s.rule)) {
      rep.errors.push_back(path + ":" + std::to_string(s.line) +
                           ": suppression names unknown rule '" + s.rule +
                           "'");
    }
  }
  if (!rep.errors.empty()) return;

  // A suppression covers findings on its own line; a comment that stands
  // alone on its line covers the next line too.  An empty reason does not
  // suppress — it becomes a finding itself, so the shipped tree can never
  // carry an unexplained allow(...).
  std::vector<Finding> kept;
  for (Finding& f : rep.findings) {
    if (f.path == path &&
        internal::suppression_covers(lx, f.rule, f.line)) {
      continue;
    }
    kept.push_back(std::move(f));
  }
  rep.findings = std::move(kept);

  if (config.applies("lint-suppression", path)) {
    for (const Suppression& s : lx.suppressions) {
      if (s.reason.empty()) {
        add(rep, path, s.line, "lint-suppression",
            "allow(" + s.rule + ") without a reason: every suppression "
            "must explain itself");
      }
    }
  }
}

void sort_findings(FileReport& rep) {
  std::sort(rep.findings.begin(), rep.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

FileReport lint_unit(const UnitSource& unit, const Config& config) {
  FileReport rep;

  internal::UnorderedDecls decls;
  internal::collect_unordered(unit.lex->tokens, decls);
  if (unit.header_lex != nullptr) {
    internal::collect_unordered(unit.header_lex->tokens, decls);
  }

  lint_one_file(unit.rel_path, *unit.lex, decls, config, rep);
  apply_suppressions(unit.rel_path, *unit.lex, config, rep);

  // The companion header is linted from the same unit (never a second
  // time as a standalone input), with the merged declaration context.
  if (unit.header_lex != nullptr && unit.report_header) {
    FileReport hdr;
    lint_one_file(unit.header_path, *unit.header_lex, decls, config, hdr);
    apply_suppressions(unit.header_path, *unit.header_lex, config, hdr);
    for (Finding& f : hdr.findings) rep.findings.push_back(std::move(f));
    for (std::string& e : hdr.errors) rep.errors.push_back(std::move(e));
  }

  if (!rep.errors.empty()) rep.findings.clear();
  sort_findings(rep);
  return rep;
}

FileReport lint_source(const std::string& rel_path, const std::string& source,
                       const Config& config,
                       const std::string* companion_header_source) {
  LexOutput lx = lex(source);
  LexOutput hdr;
  UnitSource unit;
  unit.rel_path = rel_path;
  unit.lex = &lx;
  if (companion_header_source != nullptr) {
    hdr = lex(*companion_header_source);
    unit.header_lex = &hdr;
    unit.report_header = false;  // decl context only, matching v1 behavior
  }
  return lint_unit(unit, config);
}

}  // namespace parcel::lint
