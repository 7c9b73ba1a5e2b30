// Determinism taint: index every function/method definition and call site in
// src/ with the same pragmatic token-level parsing the unordered-iter rule
// uses, mark sink lines, and walk taint up the call graph to the decision
// roots. Calls resolve by bare name against the definition index, so the
// graph over-approximates (any same-named method connects) — sound for a
// purity proof: a clean tree is genuinely clean, and a spurious edge is
// silenced with an inline allow at the reported call site, never by
// weakening the pass.
#include "callgraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace gfair_lint {
namespace {

// Identifiers that look like calls but are language constructs.
const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kWords = {
      "if",       "for",        "while",     "switch",   "catch",
      "return",   "sizeof",     "alignof",   "alignas",  "decltype",
      "new",      "delete",     "throw",     "case",     "else",
      "do",       "static_assert", "noexcept", "defined", "typeid",
      "const_cast", "static_cast", "dynamic_cast", "reinterpret_cast",
      "operator", "template",   "typename",  "requires", "co_await",
      "co_return", "co_yield",  "assert",    "this",
  };
  return kWords;
}

struct CallSite {
  std::string callee;  // bare name
  size_t line = 0;     // 0-based
};

struct FunctionDef {
  std::string name;       // bare function name
  std::string qualifier;  // class name (explicit Foo:: or enclosing class)
  size_t file_index = 0;
  size_t begin_line = 0;  // 0-based line of the opening '{'
  size_t end_line = 0;    // 0-based line of the matching '}'
  std::vector<CallSite> calls;
  // Taint state.
  std::string sink_rule;   // nonempty when the body contains a sink directly
  size_t sink_line = 0;    // 0-based
  bool tainted = false;
  int next_hop = -1;       // tainted callee this def reaches the sink through
  size_t call_line = 0;    // 0-based line of the call to next_hop
};

std::string DisplayName(const FunctionDef& def) {
  return def.qualifier.empty() ? def.name : def.qualifier + "::" + def.name;
}

// Strips "template <...>" prefixes (possibly several) so the 'class' inside
// a template parameter list never classifies the scope as a class.
std::string StripTemplatePrefix(std::string head) {
  for (;;) {
    head = Trim(head);
    if (!StartsWith(head, "template")) {
      return head;
    }
    const size_t open = head.find('<');
    if (open == std::string::npos) {
      return head;
    }
    int depth = 0;
    size_t i = open;
    for (; i < head.size(); ++i) {
      depth += AngleDelta(head, i);
      if (depth <= 0 && head[i] == '>') {
        ++i;
        break;
      }
    }
    head = head.substr(i);
  }
}

// The declared name of a class-head: the first identifier after the keyword
// that is not a parenthesized macro (GFAIR_CAPABILITY("x")) or an attribute.
std::string ClassHeadName(const std::string& head, size_t keyword_end) {
  size_t i = keyword_end;
  std::string name;
  while (i < head.size()) {
    if (IsSpace(head[i])) {
      ++i;
      continue;
    }
    if (head[i] == '[') {  // [[nodiscard]] and friends
      while (i < head.size() && head[i] != ']') ++i;
      while (i < head.size() && head[i] == ']') ++i;
      continue;
    }
    if (!IsIdentChar(head[i])) {
      break;  // ':' (base list) or anything else ends the head name region
    }
    size_t j = i;
    while (j < head.size() && IsIdentChar(head[j])) ++j;
    const std::string word = head.substr(i, j - i);
    size_t k = j;
    while (k < head.size() && IsSpace(head[k])) ++k;
    if (k < head.size() && head[k] == '(') {
      // Macro invocation between keyword and name; skip its argument list.
      int depth = 0;
      while (k < head.size()) {
        if (head[k] == '(') ++depth;
        if (head[k] == ')' && --depth == 0) {
          ++k;
          break;
        }
        ++k;
      }
      i = k;
      continue;
    }
    name = word;
    break;
  }
  return name;
}

// Reads the identifier ending just before `end` (exclusive), skipping
// trailing spaces. Returns its start position via `*begin`.
std::string IdentBefore(const std::string& s, size_t end, size_t* begin) {
  size_t e = end;
  while (e > 0 && IsSpace(s[e - 1])) --e;
  size_t b = e;
  while (b > 0 && IsIdentChar(s[b - 1])) --b;
  *begin = b;
  return s.substr(b, e - b);
}

struct HeadClass {
  enum Kind { kNamespace, kClass, kFunction, kBlock } kind = kBlock;
  std::string name;       // class name or function bare name
  std::string qualifier;  // explicit Foo:: qualifier on a function
};

HeadClass ClassifyHead(const std::string& raw_head) {
  HeadClass out;
  const std::string head = StripTemplatePrefix(raw_head);
  if (HasWord(head, "namespace")) {
    out.kind = HeadClass::kNamespace;
    return out;
  }
  if (!HasWord(head, "enum")) {
    for (const char* kw : {"class", "struct", "union"}) {
      const std::vector<size_t> hits = FindWord(head, kw);
      if (!hits.empty()) {
        out.kind = HeadClass::kClass;
        out.name = ClassHeadName(head, hits[0] + std::string(kw).size());
        return out;
      }
    }
  }
  const size_t paren = head.find('(');
  if (paren == std::string::npos) {
    return out;  // block
  }
  size_t name_begin = 0;
  const std::string name = IdentBefore(head, paren, &name_begin);
  if (name.empty() || ControlKeywords().count(name) > 0) {
    return out;  // block (control statement, operator, lambda, ...)
  }
  out.kind = HeadClass::kFunction;
  out.name = name;
  // Explicit qualification: the component just before "::name(".
  size_t i = name_begin;
  while (i >= 2 && head[i - 1] == ':' && head[i - 2] == ':') {
    size_t qb = 0;
    const std::string q = IdentBefore(head, i - 2, &qb);
    if (q.empty()) {
      break;
    }
    if (out.qualifier.empty()) {
      out.qualifier = q;  // nearest component is the class
    }
    i = qb;
  }
  return out;
}

// Appends `ident(`-shaped call sites found in `code` to `def`, skipping
// control keywords. `skip_first` suppresses the first occurrence of that
// word (the definition's own name inside its head).
void ScanCalls(const std::string& code, size_t line, const std::string& skip_first,
               FunctionDef* def) {
  bool skipped = false;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdentChar(code[i]) || (i > 0 && IsIdentChar(code[i - 1])) ||
        IsDigit(code[i])) {
      continue;
    }
    size_t j = i;
    while (j < code.size() && IsIdentChar(code[j])) ++j;
    const std::string word = code.substr(i, j - i);
    size_t k = j;
    while (k < code.size() && IsSpace(code[k])) ++k;
    i = j - 1;
    if (k >= code.size() || code[k] != '(' || ControlKeywords().count(word) > 0) {
      continue;
    }
    if (!skipped && word == skip_first) {
      skipped = true;
      continue;
    }
    def->calls.push_back({word, line});
  }
}

// Marks the lines of `f` that are preprocessor directives (including
// backslash continuations), which the scope machine and sink scan skip.
std::vector<bool> PreprocessorLines(const SourceFile& f) {
  std::vector<bool> pre(f.raw.size(), false);
  bool cont = false;
  for (size_t li = 0; li < f.raw.size(); ++li) {
    const std::string t = Trim(f.raw[li]);
    if (cont || (!t.empty() && t[0] == '#')) {
      pre[li] = true;
      cont = !t.empty() && t.back() == '\\';
    }
  }
  return pre;
}

// ---------------------------------------------------------------------------
// Per-file definition indexing: a character-level scope machine over the
// stripped lines. Heads accumulate between ';' (at paren depth 0), '{' and
// '}'; '{' classifies the head as namespace/class/function/block and pushes
// a scope. Preprocessor lines are skipped so macro bodies cannot unbalance
// the braces.
// ---------------------------------------------------------------------------

void IndexFile(const SourceFile& f, size_t file_index,
               const std::vector<bool>& preproc,
               std::vector<FunctionDef>* defs) {
  struct Scope {
    HeadClass::Kind kind;
    std::string class_name;  // for kClass
    int def_index;           // for kFunction
  };
  std::vector<Scope> stack;
  std::string head;
  int paren = 0;

  const auto enclosing_class = [&stack]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == HeadClass::kClass) {
        return it->class_name;
      }
    }
    return "";
  };

  for (size_t li = 0; li < f.code.size(); ++li) {
    if (preproc[li]) {
      continue;
    }
    const std::string& line = f.code[li];
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '(') {
        ++paren;
        head.push_back(c);
      } else if (c == ')') {
        if (paren > 0) --paren;
        head.push_back(c);
      } else if (c == '{' && paren == 0) {
        HeadClass hc = ClassifyHead(head);
        Scope scope{hc.kind, hc.name, -1};
        if (hc.kind == HeadClass::kFunction) {
          FunctionDef def;
          def.name = hc.name;
          def.qualifier =
              !hc.qualifier.empty() ? hc.qualifier : enclosing_class();
          def.file_index = file_index;
          def.begin_line = li;
          def.end_line = li;
          // The head carries ctor-init-list and default-argument calls that
          // no body line will ever see again.
          ScanCalls(head, li, hc.name, &def);
          scope.def_index = static_cast<int>(defs->size());
          defs->push_back(std::move(def));
        }
        stack.push_back(std::move(scope));
        head.clear();
      } else if (c == '}') {
        if (paren > 0) {
          head.push_back(c);  // brace inside an argument list
        } else {
          if (!stack.empty()) {
            if (stack.back().kind == HeadClass::kFunction &&
                stack.back().def_index >= 0) {
              (*defs)[static_cast<size_t>(stack.back().def_index)].end_line = li;
            }
            stack.pop_back();
          }
          head.clear();
        }
      } else if (c == ';' && paren == 0) {
        head.clear();
      } else {
        head.push_back(c);
      }
    }
    head.push_back(' ');
  }
  // Unterminated scopes (truncated fixture): close at EOF.
  for (const Scope& scope : stack) {
    if (scope.kind == HeadClass::kFunction && scope.def_index >= 0) {
      (*defs)[static_cast<size_t>(scope.def_index)].end_line =
          f.code.empty() ? 0 : f.code.size() - 1;
    }
  }
}

// The innermost definition covering each line of one file ( -1 = none).
std::vector<int> InnermostByLine(const std::vector<FunctionDef>& defs,
                                 size_t first_def, size_t end_def,
                                 size_t line_count) {
  std::vector<int> inner(line_count, -1);
  for (size_t d = first_def; d < end_def; ++d) {
    for (size_t li = defs[d].begin_line;
         li <= defs[d].end_line && li < line_count; ++li) {
      // Later defs begin later; well-nested, so later == more inner.
      if (inner[li] < 0 || defs[inner[li]].begin_line <= defs[d].begin_line) {
        inner[li] = static_cast<int>(d);
      }
    }
  }
  return inner;
}

// ---------------------------------------------------------------------------
// Sink marking.
// ---------------------------------------------------------------------------

// A line-granular sink: (0-based line, rule label). Lines carrying an inline
// allow for the base rule or for det-taint are not sinks — the existing
// suppression workflow transfers to the taint pass unchanged.
struct Sink {
  size_t line;
  std::string label;
};

bool SinkSuppressed(const SourceFile& f, size_t li, const std::string& base_rule) {
  const std::set<std::string> allowed = AllowedRules(f.raw[li]);
  if (allowed.count("det-taint") > 0) {
    return true;
  }
  if (!base_rule.empty()) {
    if (allowed.count(base_rule) > 0) {
      return true;
    }
    const Rule* rule = FindRule(base_rule);
    if (rule != nullptr && FileSuppressed(*rule, f.rel)) {
      return true;
    }
  }
  return false;
}

std::vector<Sink> FindSinks(const SourceFile& f, const UnorderedNames& names,
                            const std::vector<bool>& preproc) {
  std::vector<Sink> sinks;
  for (size_t li = 0; li < f.code.size(); ++li) {
    if (preproc[li]) {
      continue;
    }
    const std::string& code = f.code[li];
    // Wall-clock reads (the sanctioned SimTime implementation excepted).
    if (!IsSimTimeImpl(f.rel)) {
      bool hit = false;
      for (const std::string& t : WallClockTypeTokens()) {
        hit = hit || HasWord(code, t);
      }
      for (const std::string& c : WallClockCallTokens()) {
        hit = hit || HasCall(code, c);
      }
      if (hit && !SinkSuppressed(f, li, "wall-clock")) {
        sinks.push_back({li, "wall-clock"});
        continue;
      }
    }
    // Unseeded randomness (the seeded gfair::Rng implementation excepted).
    if (!IsRngImpl(f.rel)) {
      bool hit = false;
      for (const std::string& t : RawRandTypeTokens()) {
        hit = hit || HasWord(code, t);
      }
      for (const std::string& c : RawRandCallTokens()) {
        hit = hit || HasCall(code, c);
      }
      if (hit && !SinkSuppressed(f, li, "raw-rand")) {
        sinks.push_back({li, "raw-rand"});
        continue;
      }
    }
    // Environment and locale/iostream state.
    if (HasCall(code, "getenv") || HasCall(code, "setlocale") ||
        HasWord(code, "imbue") || HasWord(code, "locale") ||
        HasWord(code, "cin")) {
      if (!SinkSuppressed(f, li, "")) {
        sinks.push_back({li, "environment/locale"});
        continue;
      }
    }
    // Unordered-container range-for: order depends on hash seed and
    // allocation history. Tree-wide here (the line rule fences src/sched/
    // only; reached-from-a-root is what makes it an error elsewhere).
    bool unordered = false;
    for (size_t pos : FindWord(code, "for")) {
      unordered = unordered || RangeUsesUnordered(RangeForExpr(f, li, pos), names);
    }
    if (unordered && !SinkSuppressed(f, li, "unordered-iter")) {
      sinks.push_back({li, "unordered-iter"});
    }
  }
  return sinks;
}

// ---------------------------------------------------------------------------
// Decision roots.
// ---------------------------------------------------------------------------

bool IsDecisionRoot(const FunctionDef& def, const std::string& rel) {
  static const std::set<std::string> kRootClasses = {
      "QuantumPlanner", "PlanDiffer", "LocalStrideScheduler",
      "TradeCoordinator"};
  if (kRootClasses.count(def.qualifier) > 0) {
    return true;
  }
  // Every registered IAllocationPolicy backend: X::Allocate definitions in
  // the policy directory.
  return def.name == "Allocate" && !def.qualifier.empty() &&
         StartsWith(rel, "src/sched/policy/");
}

}  // namespace

void CheckDeterminismTaint(const std::vector<SourceFile>& files,
                           const UnorderedNames& names, Emitter* emit) {
  // Phase 1: index definitions, call sites and sinks.
  std::vector<FunctionDef> defs;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    if (!StartsWith(f.rel, "src/")) {
      continue;
    }
    const std::vector<bool> preproc = PreprocessorLines(f);
    const size_t first_def = defs.size();
    IndexFile(f, fi, preproc, &defs);
    const std::vector<int> inner =
        InnermostByLine(defs, first_def, defs.size(), f.code.size());
    for (size_t li = 0; li < f.code.size(); ++li) {
      if (preproc[li] || inner[li] < 0) {
        continue;
      }
      ScanCalls(f.code[li], li, "", &defs[static_cast<size_t>(inner[li])]);
    }
    for (const Sink& sink : FindSinks(f, names, preproc)) {
      if (sink.line >= inner.size() || inner[sink.line] < 0) {
        continue;  // sink outside any function body (global scope)
      }
      FunctionDef& def = defs[static_cast<size_t>(inner[sink.line])];
      if (def.sink_rule.empty()) {
        def.sink_rule = sink.label;
        def.sink_line = sink.line;
      }
    }
  }

  // Phase 2: reverse-BFS taint from sinks up the call graph. Deterministic:
  // defs are in (file, line) order, callers enumerated in that order too.
  std::map<std::string, std::vector<int>> by_name;
  for (size_t d = 0; d < defs.size(); ++d) {
    by_name[defs[d].name].push_back(static_cast<int>(d));
  }
  // callers[e] = (caller def, call line) pairs for every call resolving to e.
  std::vector<std::vector<std::pair<int, size_t>>> callers(defs.size());
  for (size_t d = 0; d < defs.size(); ++d) {
    for (const CallSite& call : defs[d].calls) {
      const auto it = by_name.find(call.callee);
      if (it == by_name.end()) {
        continue;
      }
      for (int e : it->second) {
        callers[static_cast<size_t>(e)].emplace_back(static_cast<int>(d),
                                                     call.line);
      }
    }
  }
  std::vector<int> queue;
  for (size_t d = 0; d < defs.size(); ++d) {
    if (!defs[d].sink_rule.empty()) {
      defs[d].tainted = true;
      queue.push_back(static_cast<int>(d));
    }
  }
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const int e = queue[qi];
    for (const auto& [caller, line] : callers[static_cast<size_t>(e)]) {
      FunctionDef& c = defs[static_cast<size_t>(caller)];
      if (c.tainted) {
        continue;
      }
      c.tainted = true;
      c.next_hop = e;
      c.call_line = line;
      queue.push_back(caller);
    }
  }

  // Phase 3: report every tainted decision root with its chain.
  const Rule& rule = *FindRule("det-taint");
  for (size_t d = 0; d < defs.size(); ++d) {
    const FunctionDef& root = defs[d];
    if (!root.tainted || !IsDecisionRoot(root, files[root.file_index].rel)) {
      continue;
    }
    std::vector<std::string> explain;
    explain.push_back("note: call chain from decision root to sink:");
    int cur = static_cast<int>(d);
    while (defs[static_cast<size_t>(cur)].next_hop >= 0) {
      const FunctionDef& c = defs[static_cast<size_t>(cur)];
      const FunctionDef& callee = defs[static_cast<size_t>(c.next_hop)];
      explain.push_back("  " + files[c.file_index].rel + ":" +
                        std::to_string(c.call_line + 1) + ": " +
                        DisplayName(c) + " calls " + DisplayName(callee));
      cur = c.next_hop;
    }
    const FunctionDef& leaf = defs[static_cast<size_t>(cur)];
    explain.push_back("  " + files[leaf.file_index].rel + ":" +
                      std::to_string(leaf.sink_line + 1) + ": " +
                      DisplayName(leaf) + " is a " + leaf.sink_rule + " sink");
    const size_t report_line =
        root.next_hop >= 0 ? root.call_line : root.sink_line;
    emit->Emit(rule, files[root.file_index], report_line, std::move(explain));
  }
}

}  // namespace gfair_lint
