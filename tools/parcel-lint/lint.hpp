#pragma once
// parcel-lint: a deliberately small, dependency-free static analyzer that
// enforces the repo's determinism and hygiene invariants at CI time.
//
// The replay pipeline (DESIGN.md §5) promises bitwise-identical RunResult
// and PacketTrace output across jobs=1/2/4 and across fault-seed replays.
// That promise is trivially broken by a stray wall-clock read, an
// std::random_device, or iteration order leaking out of an unordered
// container — none of which the compiler objects to.  parcel-lint
// tokenizes every translation unit and rejects those constructs before
// they can turn into a flaky grid test.
//
// v2 (DESIGN.md §14) grows the analyzer from per-file token rules into a
// whole-program pass: every function definition across the tree is
// indexed once, a conservative name-based call graph is built from the
// shared index, and three program-level properties are enforced on top of
// the per-file rules:
//   * nondet-transitive — taint from nondeterminism sources propagates
//     through call chains; calling a helper that (transitively) reads the
//     wall clock is flagged at the call site with the full chain.
//   * layer-violation  — the subsystem dependency DAG declared in
//     lint.rules (layer / allow-dep) is enforced on the include graph.
//   * mutex-unannotated — every mutex member must name the state it
//     guards via the PARCEL_GUARDED_BY annotations
//     (src/util/thread_annotations.hpp).
//
// The analyzer is intentionally token-based, not AST-based: it must build
// in seconds with no external dependencies, run on every CI invocation,
// and be auditable by reading a handful of files.  Precision comes from
// the rule scoping in lint.rules plus the inline suppression grammar
//   // parcel-lint: allow(<rule>) <reason>
// rather than from type resolution.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace parcel::lint {

// ---------------------------------------------------------------------------
// Tokens

enum class TokenKind : std::uint8_t {
  kIdentifier,  // identifiers and keywords
  kNumber,
  kString,      // string literal (contents dropped)
  kChar,        // character literal (contents dropped)
  kPunct,       // one punctuation character
};

struct Token {
  TokenKind kind;
  std::string text;  // empty for kString/kChar
  int line;          // 1-based
};

// One inline suppression comment: `parcel-lint: allow(<rule>) <reason>`.
struct Suppression {
  std::string rule;
  std::string reason;  // empty reason is itself a finding
  int line;            // line the comment appears on
  bool standalone;     // comment is the only thing on its line -> also
                       // covers the next line
};

// One `#include "..."` directive.  Angle-bracket includes are system
// headers with no layer, so only the quoted form is captured.
struct IncludeDirective {
  std::string path;  // the literal include string, e.g. "web/html.hpp"
  int line;
};

struct LexOutput {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<IncludeDirective> includes;
  std::set<int> code_lines;  // lines that carry at least one token
};

// Tokenize C++ source: comments, string/char literals (incl. raw strings)
// are recognized and their contents never reach rule matching (except
// `#include "..."` targets, which are captured into `includes`).
LexOutput lex(const std::string& source);

// ---------------------------------------------------------------------------
// Rules & configuration

// Every rule the analyzer knows.  Adding a rule means: add the id here,
// implement it in rules.cpp / index.cpp / layers.cpp, add a positive and
// a negative fixture, and document it in DESIGN.md §9/§14.
const std::vector<std::string>& all_rule_ids();
bool is_known_rule(const std::string& id);

struct RuleConfig {
  bool enabled = true;
  // If non-empty, the rule only applies to files whose repo-relative path
  // starts with one of these prefixes.
  std::vector<std::string> scope;
  // Files whose path starts with one of these prefixes are exempt.
  std::vector<std::string> exempt;
};

// One `layer <name> = <prefix>...` declaration.  A file belongs to the
// layer with the longest matching prefix, so a single utility header can
// be carved out of its directory (e.g. src/core/arena.hpp into `base`
// while the rest of src/core stays in `core`).
struct LayerSpec {
  std::string name;
  std::vector<std::string> prefixes;
};

struct Config {
  std::map<std::string, RuleConfig> rules;  // keyed by rule id

  // Layering DAG (`layer` / `allow-dep` verbs).  allow_deps edges are the
  // *direct* sanctioned dependencies; reachability over them defines the
  // full set of legal include directions.  parse_config rejects cyclic
  // declarations, so this is a DAG by construction.
  std::vector<LayerSpec> layers;
  std::vector<std::pair<std::string, std::string>> allow_deps;  // a -> b

  bool applies(const std::string& rule, const std::string& rel_path) const;

  // Layer of a repo-relative path by longest prefix match ("" if none).
  std::string layer_of(const std::string& rel_path) const;

  // May a file in layer `from` include a file in layer `to`?  True when
  // from == to or `to` is reachable from `from` over allow_deps.
  bool dep_allowed(const std::string& from, const std::string& to) const;
};

// Parse a lint.rules file.  Returns false and fills `error` on malformed
// input, unknown rule ids (typos must fail the build, not silently
// disable a gate), allow-dep edges naming undeclared layers, or a cyclic
// allow-dep graph.
bool parse_config(const std::string& text, Config& out, std::string& error);
bool load_config(const std::string& path, Config& out, std::string& error);

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string path;  // repo-relative
  int line;
  std::string rule;
  std::string message;
};

struct FileReport {
  std::vector<Finding> findings;
  // Hard errors (unknown rule id inside an allow(...) comment): these are
  // not suppressible and map to exit code 2.
  std::vector<std::string> errors;
};

// ---------------------------------------------------------------------------
// Lint units (per-file rules)

// One lint unit: a source file plus (for a .cpp) its already-lexed
// sibling header, so member containers declared in the class body are
// known when the .cpp iterates them.  The header's own findings are
// reported from the same unit when `report_header` is set — never from a
// second standalone pass, so nothing is double-linted.
struct UnitSource {
  std::string rel_path;                  // path used for scoping/reporting
  const LexOutput* lex = nullptr;        // required
  std::string header_path;               // companion header ("" if none)
  const LexOutput* header_lex = nullptr;
  bool report_header = false;  // header was itself an input -> report its
                               // findings from this unit
};

// Run the per-file rules over one unit.
FileReport lint_unit(const UnitSource& unit, const Config& config);

// Back-compat convenience used by tests: lex and lint a single source
// with an optional companion header (decls only, header not reported).
FileReport lint_source(const std::string& rel_path, const std::string& source,
                       const Config& config,
                       const std::string* companion_header_source);

// ---------------------------------------------------------------------------
// Whole-program passes

// One file participating in the whole-program passes.  `reportable` marks
// files that were actually requested on the command line; companion
// headers pulled in only for context still feed the index (their function
// bodies can taint) but never produce findings themselves.
struct ProgramFile {
  std::string rel_path;
  const LexOutput* lex = nullptr;
  bool reportable = true;
  // Sibling header of a .cpp (or vice versa): contributes container
  // declarations so unordered iteration over members is seen as a taint
  // source, exactly like the per-file unordered-iter rule.
  const LexOutput* companion = nullptr;
};

// The cross-file index built once and shared by every whole-program rule
// (the "file index" cache: each file is lexed and indexed exactly once
// per run regardless of how many rules consume it).
struct ProgramIndex {
  // One indexed function definition.  Bodies are token ranges into the
  // owning file's token stream; lambdas and local classes inside a body
  // attribute to the enclosing function (conservative).
  struct FunctionDef {
    std::string name;       // bare name ("read_toggle")
    std::string qualified;  // qualified when written ("util::read_toggle")
    int line = 0;
    std::size_t body_begin = 0;  // token index of '{'
    std::size_t body_end = 0;    // token index one past matching '}'
  };
  // One call occurrence `name(` inside a function body.
  struct CallSite {
    std::string callee;  // bare callee name
    int line = 0;
    int caller = -1;  // index into FileEntry::defs
  };
  // One banned construct (taint source) with its direct-rule id.
  struct SourceEvent {
    std::string rule;   // nondet-random / nondet-time / nondet-getenv /
                        // unordered-iter
    std::string token;  // offending identifier, e.g. "getenv"
    int line = 0;
    int enclosing = -1;  // index into FileEntry::defs, -1 at file scope
    bool suppressed = false;  // an inline allow(<rule>) with reason covers
                              // it -> audited, does not taint
  };
  // One mutex-typed member declaration at class scope.
  struct MutexMember {
    std::string name;
    std::string type;  // as written, e.g. "std::mutex" or "util::Mutex"
    int line = 0;
  };
  struct FileEntry {
    ProgramFile file;
    std::vector<FunctionDef> defs;
    std::vector<CallSite> calls;
    std::vector<SourceEvent> events;
    std::vector<MutexMember> mutexes;
    // Names X appearing as PARCEL_GUARDED_BY(X) / PARCEL_PT_GUARDED_BY(X)
    // anywhere in this file.
    std::set<std::string> guarded_names;
  };
  std::vector<FileEntry> files;
};

ProgramIndex build_program_index(const std::vector<ProgramFile>& files);

// nondet-transitive: propagate determinism taint through the call graph.
// A function whose body contains an *unsuppressed* banned construct
// (nondet-random / nondet-time / nondet-getenv source, or iteration over
// an unordered container) is a taint root even where the direct rule is
// scoped out (that is the point: util/ and bench/ are exempt from the
// direct rules, but result-affecting code must not call into their
// nondeterminism).  Taint flows caller-ward over a conservative
// name-based call graph; an edge is severed — and the finding silenced —
// by `// parcel-lint: allow(nondet-transitive) <reason>` on the call
// line.
void check_nondet_transitive(const ProgramIndex& index, const Config& config,
                             FileReport& rep);

// layer-violation: enforce the declared layer DAG on the include graph
// and reject include cycles.  `known_files` is the set of repo-relative
// paths used to resolve include strings (tried as sibling of the
// includer, then under src/, then repo-relative).
void check_layers(const ProgramIndex& index, const Config& config,
                  const std::set<std::string>& known_files, FileReport& rep);

// mutex-unannotated: every mutex-typed member must be named by a
// PARCEL_GUARDED_BY / PARCEL_PT_GUARDED_BY annotation in its lint unit.
void check_mutex_annotations(const ProgramIndex& index, const Config& config,
                             FileReport& rep);

// ---------------------------------------------------------------------------
// CLI

// argv-style entry point (without argv[0]).  Returns the process exit
// code: 0 clean, 1 findings, 2 usage/config/IO error.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace parcel::lint
