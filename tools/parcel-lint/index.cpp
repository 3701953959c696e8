// Whole-program index: function definitions, a conservative name-based
// call graph, taint sources, and mutex members — built once per run and
// shared by every program-level rule (nondet-transitive here,
// layer-violation in layers.cpp, mutex-unannotated below).
//
// The indexer is token-based like the rest of parcel-lint.  Function
// definitions are recognized as `name(...) ... {` at namespace/class
// scope (constructor init lists and trailing return types are skipped);
// lambdas and local classes attribute to their enclosing function, which
// is the conservative direction for taint.  Call extraction is
// name-based: `x(...)` and `obj.x(...)` both record callee `x`, so any
// project function sharing the name is considered a possible target —
// over-approximation is the stated policy, and the per-edge
// allow(nondet-transitive) suppression is the escape hatch.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "internal.hpp"
#include "lint.hpp"

namespace parcel::lint {
namespace {

using internal::is_ident;
using internal::is_punct;
using internal::skip_template_args;

bool keyword_not_callable(const std::string& text) {
  static const std::set<std::string> kKeywords = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "alignof", "decltype", "new", "delete", "throw", "static_assert",
      "alignas", "requires", "noexcept", "operator", "defined",
      "co_await", "co_yield", "co_return", "asm", "using", "typedef",
      "template", "typename", "class", "struct", "union", "enum",
      "namespace", "public", "private", "protected", "case", "default",
      "else", "do", "goto", "try", "const", "constexpr", "consteval",
      "constinit", "static", "inline", "extern", "explicit", "virtual",
      "friend", "mutable", "volatile", "register", "thread_local"};
  return kKeywords.count(text) > 0;
}

// Find the index one past the ')' matching toks[i] == '('.
std::size_t skip_parens(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], '(')) ++depth;
    if (is_punct(toks[i], ')') && --depth == 0) return i + 1;
  }
  return i;
}

std::size_t skip_braces(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], '{')) ++depth;
    if (is_punct(toks[i], '}') && --depth == 0) return i + 1;
  }
  return i;
}

// Given `name` at toks[i] with toks[i+1] == '(', decide whether this is a
// function definition; on success return the index of the body '{'.
// Walks the parameter list, trailing qualifiers (const/noexcept/
// override/final), a trailing return type, and a constructor init list.
// Returns 0 on mismatch (index 0 can never start a body).
std::size_t match_function_body(const std::vector<Token>& toks,
                                std::size_t i) {
  std::size_t k = skip_parens(toks, i + 1);
  if (k == i + 1 || k >= toks.size()) return 0;
  while (k < toks.size()) {
    const Token& t = toks[k];
    if (is_punct(t, '{')) return k;
    if (t.kind == TokenKind::kIdentifier) {
      // const / noexcept / override / final / mutable / requires, or a
      // trailing-return-type token.  noexcept(...) skips its argument.
      if (t.text == "noexcept" && k + 1 < toks.size() &&
          is_punct(toks[k + 1], '(')) {
        k = skip_parens(toks, k + 1);
        continue;
      }
      ++k;
      continue;
    }
    if (is_punct(t, '<')) {
      k = skip_template_args(toks, k);
      continue;
    }
    if (is_punct(t, '*') || is_punct(t, '&')) {
      ++k;
      continue;
    }
    if (is_punct(t, '-') && k + 1 < toks.size() &&
        is_punct(toks[k + 1], '>')) {
      k += 2;  // trailing return type arrow
      continue;
    }
    if (is_punct(t, ':') && k + 1 < toks.size() &&
        is_punct(toks[k + 1], ':')) {
      k += 2;  // '::' inside a trailing return type
      continue;
    }
    if (is_punct(t, ':')) {
      // Constructor init list: `: member(expr), Base{expr} ... {`.
      ++k;
      while (k < toks.size()) {
        // member name (possibly qualified / templated)
        while (k < toks.size() &&
               (toks[k].kind == TokenKind::kIdentifier ||
                is_punct(toks[k], ':'))) {
          ++k;
        }
        if (k < toks.size() && is_punct(toks[k], '<')) {
          k = skip_template_args(toks, k);
        }
        if (k >= toks.size()) return 0;
        if (is_punct(toks[k], '(')) {
          k = skip_parens(toks, k);
        } else if (is_punct(toks[k], '{')) {
          k = skip_braces(toks, k);
        } else {
          return 0;
        }
        if (k < toks.size() && is_punct(toks[k], ',')) {
          ++k;
          continue;
        }
        if (k < toks.size() && is_punct(toks[k], '{')) return k;
        return 0;
      }
      return 0;
    }
    return 0;  // ';' (declaration), '=' (pure/defaulted), ',', ')', ...
  }
  return 0;
}

// What kind of scope does a '{' open?
enum class ScopeKind { kNamespace, kClass, kEnum, kFunction, kOther };

struct IndexBuilder {
  const std::vector<Token>& toks;
  ProgramIndex::FileEntry& entry;

  void run() {
    std::vector<ScopeKind> scopes;
    // Keyword seen since the last scope boundary (';' '{' '}') that
    // classifies the next '{': namespace/class/struct/union/enum.
    ScopeKind pending = ScopeKind::kOther;
    bool pending_set = false;
    // Body brace index of a function definition just matched.
    std::size_t pending_body = 0;
    std::size_t pending_def = 0;  // index into entry.defs

    auto in_function = [&] {
      return std::find(scopes.begin(), scopes.end(), ScopeKind::kFunction) !=
             scopes.end();
    };
    auto in_enum = [&] {
      return !scopes.empty() && scopes.back() == ScopeKind::kEnum;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_punct(t, '{')) {
        if (pending_body == i) {
          scopes.push_back(ScopeKind::kFunction);
          // Record where the body ends once we know it (patched on pop).
        } else if (pending_set) {
          scopes.push_back(pending);
        } else {
          scopes.push_back(ScopeKind::kOther);
        }
        pending_set = false;
        pending_body = 0;
        continue;
      }
      if (is_punct(t, '}')) {
        if (!scopes.empty()) {
          if (scopes.back() == ScopeKind::kFunction &&
              !entry.defs.empty()) {
            // Close the innermost still-open function body.
            for (std::size_t d = entry.defs.size(); d-- > 0;) {
              if (entry.defs[d].body_end == 0) {
                entry.defs[d].body_end = i + 1;
                break;
              }
            }
          }
          scopes.pop_back();
        }
        pending_set = false;
        pending_body = 0;
        continue;
      }
      if (is_punct(t, ';')) {
        pending_set = false;
        pending_body = 0;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;

      if (t.text == "namespace") {
        pending = ScopeKind::kNamespace;
        pending_set = true;
        continue;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union") {
        // `enum class` stays an enum; the later keyword must not override.
        if (!(pending_set && pending == ScopeKind::kEnum)) {
          pending = ScopeKind::kClass;
          pending_set = true;
        }
        continue;
      }
      if (t.text == "enum") {
        pending = ScopeKind::kEnum;
        pending_set = true;
        continue;
      }

      // Function definition?  Only at namespace/class/file scope — bodies
      // nest lambdas and local types into their enclosing function.
      if (!in_function() && !in_enum() && i + 1 < toks.size() &&
          is_punct(toks[i + 1], '(') && !keyword_not_callable(t.text)) {
        const std::size_t body = match_function_body(toks, i);
        if (body != 0) {
          ProgramIndex::FunctionDef def;
          def.name = t.text;
          def.qualified = qualified_name(i);
          def.line = t.line;
          def.body_begin = body;
          def.body_end = 0;  // patched when the matching '}' pops
          pending_def = entry.defs.size();
          entry.defs.push_back(std::move(def));
          pending_body = body;
          pending_set = false;
          // Skip ahead to the body brace so parameter names don't look
          // like declarations/classifiers.
          i = body - 1;
          continue;
        }
      }
    }
    // Unterminated bodies (truncated input): close at EOF.
    for (ProgramIndex::FunctionDef& def : entry.defs) {
      if (def.body_end == 0) def.body_end = toks.size();
    }
    (void)pending_def;
  }

  std::string qualified_name(std::size_t i) const {
    std::string name = toks[i].text;
    std::size_t j = i;
    while (j >= 3 && is_punct(toks[j - 1], ':') && is_punct(toks[j - 2], ':') &&
           toks[j - 3].kind == TokenKind::kIdentifier) {
      name = toks[j - 3].text + "::" + name;
      j -= 3;
    }
    return name;
  }
};

int enclosing_def(const ProgramIndex::FileEntry& entry,
                  const std::vector<Token>& toks, int line) {
  for (std::size_t d = 0; d < entry.defs.size(); ++d) {
    const ProgramIndex::FunctionDef& def = entry.defs[d];
    if (def.body_begin >= toks.size() || def.body_end == 0 ||
        def.body_end > toks.size()) {
      continue;
    }
    const int first = toks[def.body_begin].line;
    const int last = toks[def.body_end - 1].line;
    if (line >= first && line <= last) return static_cast<int>(d);
  }
  return -1;
}

void collect_calls(const std::vector<Token>& toks,
                   ProgramIndex::FileEntry& entry) {
  for (std::size_t d = 0; d < entry.defs.size(); ++d) {
    const ProgramIndex::FunctionDef& def = entry.defs[d];
    for (std::size_t i = def.body_begin;
         i + 1 < def.body_end && i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier || !is_punct(toks[i + 1], '(') ||
          keyword_not_callable(t.text)) {
        continue;
      }
      // `std::x(` is a standard-library call, not a project edge.
      if (i >= 3 && is_punct(toks[i - 1], ':') && is_punct(toks[i - 2], ':') &&
          is_ident(toks[i - 3], "std")) {
        continue;
      }
      entry.calls.push_back({t.text, t.line, static_cast<int>(d)});
    }
  }
}

void collect_mutex_members(const std::vector<Token>& toks,
                           ProgramIndex::FileEntry& entry) {
  static const std::set<std::string> kMutexTypes = {
      "mutex",       "shared_mutex", "recursive_mutex",
      "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "Mutex",       "SharedMutex"};
  // Re-walk scopes (cheap) to know which '{' are class bodies.
  std::vector<ScopeKind> scopes;
  ScopeKind pending = ScopeKind::kOther;
  bool pending_set = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, '{')) {
      scopes.push_back(pending_set ? pending : ScopeKind::kOther);
      pending_set = false;
      continue;
    }
    if (is_punct(t, '}')) {
      if (!scopes.empty()) scopes.pop_back();
      pending_set = false;
      continue;
    }
    if (is_punct(t, ';')) {
      pending_set = false;
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "namespace") {
      pending = ScopeKind::kNamespace;
      pending_set = true;
      continue;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union") {
      if (!(pending_set && pending == ScopeKind::kEnum)) {
        pending = ScopeKind::kClass;
        pending_set = true;
      }
      continue;
    }
    if (t.text == "enum") {
      pending = ScopeKind::kEnum;
      pending_set = true;
      continue;
    }
    // Inside a class body: `[std::|util::] MutexType [*&] name [;={]`.
    if (scopes.empty() || scopes.back() != ScopeKind::kClass) continue;
    if (kMutexTypes.count(t.text) == 0) continue;
    std::string type = t.text;
    if (i >= 3 && is_punct(toks[i - 1], ':') && is_punct(toks[i - 2], ':') &&
        toks[i - 3].kind == TokenKind::kIdentifier) {
      type = toks[i - 3].text + "::" + type;
    }
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (is_punct(toks[j], '*') || is_punct(toks[j], '&'))) {
      ++j;
    }
    if (j + 1 >= toks.size() || toks[j].kind != TokenKind::kIdentifier) {
      continue;  // `using Mutex = ...`, template args, etc.
    }
    const Token& next = toks[j + 1];
    if (is_punct(next, ';') || is_punct(next, '{') || is_punct(next, '=')) {
      entry.mutexes.push_back({toks[j].text, type, t.line});
    }
  }
}

void collect_guarded_names(const std::vector<Token>& toks,
                           ProgramIndex::FileEntry& entry) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier ||
        (t.text != "PARCEL_GUARDED_BY" && t.text != "PARCEL_PT_GUARDED_BY") ||
        !is_punct(toks[i + 1], '(')) {
      continue;
    }
    for (std::size_t j = i + 2; j < toks.size() && !is_punct(toks[j], ')');
         ++j) {
      if (toks[j].kind == TokenKind::kIdentifier) {
        entry.guarded_names.insert(toks[j].text);
      }
    }
  }
}

void collect_events(const ProgramFile& file, ProgramIndex::FileEntry& entry) {
  const std::vector<Token>& toks = file.lex->tokens;
  internal::UnorderedDecls decls;
  internal::collect_unordered(toks, decls);
  if (file.companion != nullptr) {
    internal::collect_unordered(file.companion->tokens, decls);
  }
  std::vector<internal::RawEvent> raw;
  internal::collect_nondet_events(toks, raw);
  internal::collect_unordered_events(toks, decls, raw);
  for (const internal::RawEvent& e : raw) {
    ProgramIndex::SourceEvent ev;
    ev.rule = e.rule;
    ev.token = e.token;
    ev.line = e.line;
    ev.enclosing = enclosing_def(entry, toks, e.line);
    ev.suppressed = internal::suppression_covers(*file.lex, e.rule, e.line);
    entry.events.push_back(std::move(ev));
  }
}

}  // namespace

ProgramIndex build_program_index(const std::vector<ProgramFile>& files) {
  ProgramIndex index;
  index.files.reserve(files.size());
  for (const ProgramFile& file : files) {
    ProgramIndex::FileEntry entry;
    entry.file = file;
    IndexBuilder{file.lex->tokens, entry}.run();
    collect_calls(file.lex->tokens, entry);
    collect_mutex_members(file.lex->tokens, entry);
    collect_guarded_names(file.lex->tokens, entry);
    collect_events(file, entry);
    index.files.push_back(std::move(entry));
  }
  return index;
}

// ---------------------------------------------------------------------------
// nondet-transitive

namespace {

struct Taint {
  // Display chain from the tainted function down to the source token,
  // e.g. {"load_settings", "read_toggle", "getenv() [nondet-getenv at
  // src/util/settings.cpp:9]"}.
  std::vector<std::string> chain;
};

std::string chain_str(const std::vector<std::string>& chain) {
  std::string out;
  for (const std::string& hop : chain) {
    if (!out.empty()) out += " -> ";
    out += hop;
  }
  return out;
}

}  // namespace

void check_nondet_transitive(const ProgramIndex& index, const Config& config,
                             FileReport& rep) {
  // Seed: every function whose body carries an *unsuppressed* banned
  // construct.  Inline-suppressed constructs are audited (the reason
  // explains why the nondeterminism is contained) and do not taint.
  std::map<std::string, Taint> tainted;  // keyed by bare function name
  for (const ProgramIndex::FileEntry& fe : index.files) {
    for (const ProgramIndex::SourceEvent& ev : fe.events) {
      if (ev.suppressed || ev.enclosing < 0) continue;
      const ProgramIndex::FunctionDef& def =
          fe.defs[static_cast<std::size_t>(ev.enclosing)];
      auto [it, inserted] = tainted.try_emplace(def.name);
      if (!inserted) continue;
      const std::string what =
          ev.rule == "unordered-iter"
              ? "unordered iteration over '" + ev.token + "'"
              : "'" + ev.token + "' [" + ev.rule + "]";
      it->second.chain = {def.qualified,
                         what + " at " + fe.file.rel_path + ":" +
                             std::to_string(ev.line)};
    }
  }

  // Propagate caller-ward to a fixpoint.  An edge is severed by an
  // allow(nondet-transitive) with reason on its call line; severed edges
  // neither taint the caller nor produce findings.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ProgramIndex::FileEntry& fe : index.files) {
      for (const ProgramIndex::CallSite& call : fe.calls) {
        auto callee = tainted.find(call.callee);
        if (callee == tainted.end() || call.caller < 0) continue;
        const ProgramIndex::FunctionDef& caller =
            fe.defs[static_cast<std::size_t>(call.caller)];
        if (tainted.count(caller.name) > 0) continue;
        if (internal::suppression_covers(*fe.file.lex, "nondet-transitive",
                                         call.line)) {
          continue;
        }
        Taint t;
        t.chain.push_back(caller.qualified);
        t.chain.insert(t.chain.end(), callee->second.chain.begin(),
                       callee->second.chain.end());
        tainted.emplace(caller.name, std::move(t));
        changed = true;
      }
    }
  }

  // Report every live edge into the tainted set from in-scope files.
  for (const ProgramIndex::FileEntry& fe : index.files) {
    if (!fe.file.reportable) continue;
    if (!config.applies("nondet-transitive", fe.file.rel_path)) continue;
    for (const ProgramIndex::CallSite& call : fe.calls) {
      auto callee = tainted.find(call.callee);
      if (callee == tainted.end()) continue;
      // A call to a function that is *defined* nowhere in the program is
      // not an edge (the callee map only holds indexed definitions).
      if (internal::suppression_covers(*fe.file.lex, "nondet-transitive",
                                       call.line)) {
        continue;
      }
      rep.findings.push_back(
          {fe.file.rel_path, call.line, "nondet-transitive",
           "call to '" + call.callee +
               "' transitively reaches a nondeterminism source: " +
               chain_str(callee->second.chain) +
               "; sever this edge with '// parcel-lint: "
               "allow(nondet-transitive) <reason>' only if the "
               "nondeterminism cannot reach results or traces"});
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-unannotated

void check_mutex_annotations(const ProgramIndex& index, const Config& config,
                             FileReport& rep) {
  for (const ProgramIndex::FileEntry& fe : index.files) {
    if (!fe.file.reportable) continue;
    if (!config.applies("mutex-unannotated", fe.file.rel_path)) continue;
    for (const ProgramIndex::MutexMember& m : fe.mutexes) {
      if (fe.guarded_names.count(m.name) > 0) continue;
      if (internal::suppression_covers(*fe.file.lex, "mutex-unannotated",
                                       m.line)) {
        continue;
      }
      std::string message =
          "mutex member '" + m.name + "' (" + m.type +
          ") has no PARCEL_GUARDED_BY(" + m.name +
          ") in this file: annotate the state it protects "
          "(src/util/thread_annotations.hpp)";
      if (m.type.find("Mutex") == std::string::npos) {
        message +=
            ", and prefer util::Mutex so clang -Wthread-safety can "
            "check the locking discipline";
      }
      rep.findings.push_back(
          {fe.file.rel_path, m.line, "mutex-unannotated", std::move(message)});
    }
  }
}

}  // namespace parcel::lint
