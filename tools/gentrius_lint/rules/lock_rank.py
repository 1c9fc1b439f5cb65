"""Lock-hierarchy analysis.

Every ``support::Mutex`` in the project carries a compile-time rank
(``Mutex mu_{support::Rank::kPool}``); the discipline is that a thread
only acquires mutexes in *strictly increasing* rank order. This rule
proves the discipline statically:

``mutex-rank``  — a ``Mutex`` member/variable declared without a
``Rank::k*`` argument, or with a rank name that is not in the ``Rank``
enum (parsed from ``support/sync.hpp``).

``lock-order``  — the static acquisition graph. For every function the
rule extracts its ``MutexLock`` sites, computes the scope of each guard
(to the end of its enclosing block), and records an edge
``rank(held) -> rank(acquired)`` for every acquisition — direct or via a
call — made while the guard is live. Callee acquisitions are propagated
through a call-graph fixpoint. Calls resolve by bare name, except that a
member call on a declared ``std::atomic`` object (``size_.store(...)``) is
the atomic's own operation and never resolves to a project function of
the same name. Functions whose acquisitions the
extractor cannot see (callbacks, type-erased paths) can declare them with
``// lint:acquires(kRankA, kRankB)`` above their definition. Any edge
that is not strictly increasing is a finding at the inner acquisition
site.

``lock-cycle``  — a cycle in the rank graph built from the surviving
edges (reported even if each individual edge was ``lint:allow``ed away,
because a cycle means the allows jointly re-introduced a deadlock).

The companion runtime validator (``support/sync.hpp``) enforces the same
invariant dynamically in debug/sanitizer builds via a thread-local stack
of held ranks.
"""

from __future__ import annotations

import pathlib
import re

from gentrius_lint import core

_RANK_ENUM_RE = re.compile(r"\benum\s+class\s+Rank\b")
_RANK_ENTRY_RE = re.compile(r"(k\w+)(?:\s*=\s*(-?\d+))?")
_MUTEX_DECL_RE = re.compile(r"\bMutex\b\s+(\w+)\s*(\{[^}]*\}|\([^)]*\))?\s*;")
_RANK_ARG_RE = re.compile(r"\bRank::(k\w+)")
_LOCK_SITE_RE = re.compile(r"\bMutexLock\b\s+\w+\s*[({]([^)}]*)[)}]")
_ACQUIRES_RE = re.compile(r"//\s*lint:acquires\(\s*(k\w+(?:\s*,\s*k\w+)*)\s*\)")
_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# `std::atomic<T> name`, also nested (`std::vector<std::atomic<T>> name`).
_ATOMIC_DECL_RE = re.compile(r"\batomic\s*<[^;{}()]*>\s*(\w+)\s*[{;=\[]")
# The receiver of a member call: `name.` / `name->` / `name[i].` just
# before the callee.
_RECEIVER_RE = re.compile(r"(\w+)\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*$")


def parse_rank_enum(files: list[core.SourceFile]) -> dict[str, int]:
    """Rank name -> numeric value, parsed from the enum definition."""
    for sf in files:
        flat_text = "\n".join(sf.code_lines)
        m = _RANK_ENUM_RE.search(flat_text)
        if not m:
            continue
        brace = flat_text.find("{", m.end())
        if brace < 0:
            continue
        end = core._skip_balanced(flat_text, brace)
        ranks: dict[str, int] = {}
        next_value = 0
        for entry in _RANK_ENTRY_RE.finditer(flat_text, brace, end - 1):
            value = int(entry.group(2)) if entry.group(2) else next_value
            ranks[entry.group(1)] = value
            next_value = value + 1
        if ranks:
            return ranks
    raise core.LintUsageError(
        "no 'enum class Rank' definition found in the scanned sources "
        "(expected in src/support/sync.hpp)")


def _find_mutexes(sf: core.SourceFile, ranks: dict[str, int],
                  findings: list[core.Finding]) -> dict[str, str]:
    """Mutex variable name -> rank name for this file; emits mutex-rank
    findings for unranked declarations."""
    table: dict[str, str] = {}
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in _MUTEX_DECL_RE.finditer(code):
            var, init = m.group(1), m.group(2) or ""
            rank = _RANK_ARG_RE.search(init)
            if not rank:
                if not sf.allowed(lineno, "mutex-rank"):
                    findings.append(core.Finding(
                        sf.path, lineno, "mutex-rank",
                        f"Mutex '{var}' declared without a rank; give it "
                        "one from support::Rank so the lock hierarchy "
                        "covers it", sf.raw_lines[lineno - 1].strip()))
                continue
            name = rank.group(1)
            if name not in ranks:
                if not sf.allowed(lineno, "mutex-rank"):
                    findings.append(core.Finding(
                        sf.path, lineno, "mutex-rank",
                        f"Mutex '{var}' uses unknown rank '{name}' "
                        f"(known: {sorted(ranks)})",
                        sf.raw_lines[lineno - 1].strip()))
                continue
            table[var] = name
    return table


def _declared_acquires(sf: core.SourceFile, header_line: int) -> set[str]:
    """Ranks declared via ``// lint:acquires(...)`` on or just above the
    function header."""
    out: set[str] = set()
    for lineno in range(max(1, header_line - 3), header_line + 1):
        m = _ACQUIRES_RE.search(sf.raw_lines[lineno - 1])
        if m:
            out.update(r.strip() for r in m.group(1).split(","))
    return out


def _scope_end(text: str, pos: int, body_end: int) -> int:
    """Offset where the block enclosing ``pos`` closes (a ``MutexLock``
    guard lives until then)."""
    depth = 0
    i = pos
    while i < body_end:
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return i
        i += 1
    return body_end


class _Site:
    """One MutexLock acquisition: its rank, line, and guard scope."""

    def __init__(self, rank: str, line: int, pos: int, end: int):
        self.rank = rank
        self.line = line
        self.pos = pos
        self.end = end


class _Function:
    def __init__(self, sf: core.SourceFile, fndef: core.FunctionDef,
                 flat: core.FlatText):
        self.sf = sf
        self.fndef = fndef
        self.flat = flat
        self.sites: list[_Site] = []
        self.declared = _declared_acquires(sf, fndef.header_line)
        # transitive set of ranks this function may acquire (fixpoint)
        self.acquires: set[str] = set(self.declared)


class _DeclaredStub:
    """A body-less declaration carrying ``// lint:acquires(...)``: it
    participates in the call graph with exactly its declared ranks."""

    def __init__(self, ranks: set[str]):
        self.acquires = set(ranks)


def _collect_functions(files: list[core.SourceFile],
                       mutex_tables: dict[str, dict[str, str]],
                       ) -> dict[str, list[_Function]]:
    by_name: dict[str, list[_Function]] = {}
    for sf in files:
        flat = core.FlatText(sf.code_lines)
        local = mutex_tables.get(sf.path, {})
        for fndef in core.extract_functions(flat):
            fn = _Function(sf, fndef, flat)
            for m in _LOCK_SITE_RE.finditer(flat.text, fndef.body_start,
                                            fndef.body_end):
                arg = m.group(1)
                var_m = re.search(r"(\w+)\s*$", arg)
                if not var_m:
                    continue
                rank = local.get(var_m.group(1))
                if rank is None:
                    continue  # unresolvable (parameter, foreign object)
                fn.sites.append(_Site(
                    rank, flat.line_of(m.start()), m.start(),
                    _scope_end(flat.text, m.end(), fndef.body_end)))
            fn.acquires.update(site.rank for site in fn.sites)
            by_name.setdefault(fndef.name, []).append(fn)
    # lint:acquires above a body-less declaration: attach to the first
    # callable name on the following code line.
    for sf in files:
        for lineno, raw in enumerate(sf.raw_lines, start=1):
            m = _ACQUIRES_RE.search(raw)
            if not m:
                continue
            ranks = {r.strip() for r in m.group(1).split(",")}
            for target_line in range(lineno + 1,
                                     min(lineno + 3, len(sf.code_lines) + 1)):
                name_m = _CALL_RE.search(sf.code_lines[target_line - 1])
                if name_m:
                    by_name.setdefault(name_m.group(1), []).append(
                        _DeclaredStub(ranks))
                    break
    return by_name


def _atomic_names(files: list[core.SourceFile]) -> set[str]:
    """Names declared as ``std::atomic`` objects anywhere in the scan."""
    names: set[str] = set()
    for sf in files:
        for code in sf.code_lines:
            names.update(m.group(1) for m in _ATOMIC_DECL_RE.finditer(code))
    return names


def _calls(fn: _Function, start: int, end: int, atomics: set[str]):
    """(callee, offset) for each call in ``fn``'s text [start, end) that may
    reach a project function: recursion and member calls on a declared
    atomic object are skipped."""
    text = fn.flat.text
    for m in _CALL_RE.finditer(text, start, end):
        callee = m.group(1)
        if callee == fn.fndef.name:
            continue
        receiver = _RECEIVER_RE.search(text, max(start, m.start() - 120),
                                       m.start())
        if receiver and receiver.group(1) in atomics:
            continue
        yield callee, m.start()


def _close_acquires(by_name: dict[str, list[_Function]],
                    atomics: set[str]) -> None:
    """Propagate acquisitions through the call graph to a fixpoint."""
    changed = True
    guard = 0
    while changed and guard < 64:
        changed = False
        guard += 1
        for fns in by_name.values():
            for fn in fns:
                if isinstance(fn, _DeclaredStub):
                    continue
                for callee, _ in _calls(fn, fn.fndef.body_start,
                                        fn.fndef.body_end, atomics):
                    for target in by_name.get(callee, ()):
                        extra = target.acquires - fn.acquires
                        if extra:
                            fn.acquires.update(extra)
                            changed = True


def _edges_for(fn: _Function, by_name: dict[str, list[_Function]],
               atomics: set[str]) -> list[tuple[str, str, int]]:
    """(held_rank, acquired_rank, line) edges created inside ``fn``."""
    edges: list[tuple[str, str, int]] = []
    for site in fn.sites:
        # Later direct acquisitions inside this guard's scope.
        for other in fn.sites:
            if site.pos < other.pos < site.end:
                edges.append((site.rank, other.rank, other.line))
        # Calls made while the guard is held.
        for callee, offset in _calls(fn, site.pos, site.end, atomics):
            line = fn.flat.line_of(offset)
            for target in by_name.get(callee, ()):
                for rank in sorted(target.acquires):
                    edges.append((site.rank, rank, line))
    return edges


def _find_rank_cycle(edges: set[tuple[str, str]]) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in
             set(graph) | {b for bs in graph.values() for b in bs}}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color[nxt] == GREY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                cycle = dfs(nxt)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(color):
        if color[node] == WHITE:
            cycle = dfs(node)
            if cycle:
                return cycle
    return None


def run_check(files: list[core.SourceFile]) -> list[core.Finding]:
    findings: list[core.Finding] = []
    ranks = parse_rank_enum(files)
    mutex_tables = {sf.path: _find_mutexes(sf, ranks, findings)
                    for sf in files}
    by_name = _collect_functions(files, mutex_tables)
    atomics = _atomic_names(files)
    _close_acquires(by_name, atomics)

    graph_edges: set[tuple[str, str]] = set()
    first_site: dict[tuple[str, str], tuple[str, int]] = {}
    for fns in by_name.values():
        for fn in fns:
            if isinstance(fn, _DeclaredStub):
                continue
            for held, acquired, line in _edges_for(fn, by_name, atomics):
                if held not in ranks or acquired not in ranks:
                    continue
                graph_edges.add((held, acquired))
                first_site.setdefault((held, acquired), (fn.sf.path, line))
                if ranks[acquired] <= ranks[held]:
                    if fn.sf.allowed(line, "lock-order"):
                        continue
                    findings.append(core.Finding(
                        fn.sf.path, line, "lock-order",
                        f"acquires {acquired} (rank {ranks[acquired]}) while "
                        f"holding {held} (rank {ranks[held]}); the hierarchy "
                        "requires strictly increasing ranks",
                        fn.sf.raw_lines[line - 1].strip()))

    cycle = _find_rank_cycle(graph_edges)
    if cycle:
        path, line = first_site[(cycle[0], cycle[1])]
        findings.append(core.Finding(
            path, line, "lock-cycle",
            "static acquisition graph has a cycle: " + " -> ".join(cycle),
            " -> ".join(cycle)))
    return findings


class LockRankRule:
    name = "lock-rank"
    codes = frozenset({"mutex-rank", "lock-order", "lock-cycle"})
    dirs = ("src",)

    @staticmethod
    def describe() -> str:
        return ("every Mutex carries a Rank; static acquisition graph must "
                "be strictly increasing and cycle-free")

    @staticmethod
    def check(files: list[core.SourceFile],
              root: pathlib.Path) -> list[core.Finding]:
        del root
        return run_check(files)

    @staticmethod
    def self_test() -> list[tuple[str, bool]]:
        return _self_test()


_ENUM_SRC = """\
namespace support {
enum class Rank : int {
  kTaskQueue = 10,
  kSchedulerSignal = 20,
  kCounterSink = 30,
  kTest = 100,
};
}
"""

_OK_SRC = """\
class Pipeline {
 public:
  void submit() {
    support::MutexLock lock(queue_mu_);
    signal();
  }
  void signal() {
    support::MutexLock lock(signal_mu_);
  }

 private:
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""


def _lint(*sources: str) -> list[core.Finding]:
    codes = LockRankRule.codes
    files = [core.SourceFile("src/support/sync.hpp", _ENUM_SRC, codes)]
    files += [core.SourceFile(f"<seeded-{i}>", text, codes)
              for i, text in enumerate(sources)]
    return run_check(files)


def _self_test() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def fires(code: str, *sources: str) -> bool:
        return any(f.code == code for f in _lint(*sources))

    checks.append(("lock-rank: increasing acquisition through a call is "
                   "quiet", not any(_lint(_OK_SRC))))

    inverted = _OK_SRC.replace("Rank::kTaskQueue", "Rank::kTEMP").replace(
        "Rank::kSchedulerSignal", "Rank::kTaskQueue").replace(
        "Rank::kTEMP", "Rank::kSchedulerSignal")
    checks.append(("lock-order: fires on rank inversion through a call",
                   fires("lock-order", inverted)))
    checks.append(("lock-cycle: inversion also reports the rank-graph cycle "
                   "when paired with the forward edge",
                   fires("lock-cycle", inverted, _OK_SRC)))

    nested = """\
class Nested {
  void both() {
    support::MutexLock outer(signal_mu_);
    support::MutexLock inner(queue_mu_);
  }
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: fires on directly nested inverted guards",
                   fires("lock-order", nested)))
    allowed = nested.replace(
        "    support::MutexLock inner(queue_mu_);",
        "    // lint:allow(lock-order)\n"
        "    support::MutexLock inner(queue_mu_);")
    checks.append(("lock-order: silenced by lint:allow at the inner site",
                   not fires("lock-order", allowed)))

    scoped = """\
class Scoped {
  void sequential() {
    { support::MutexLock a(signal_mu_); }
    { support::MutexLock b(queue_mu_); }
  }
  support::Mutex queue_mu_{support::Rank::kTaskQueue};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: sequential non-overlapping guards are quiet",
                   not any(_lint(scoped))))

    unranked = "class U { support::Mutex mu_; };"
    checks.append(("mutex-rank: fires on an unranked Mutex",
                   fires("mutex-rank", unranked)))
    checks.append(("mutex-rank: silenced by lint:allow",
                   not fires("mutex-rank",
                             "class U { support::Mutex mu_; "
                             "};  // lint:allow(mutex-rank)")))
    checks.append(("mutex-rank: fires on an unknown rank name",
                   fires("mutex-rank",
                         "class U { support::Mutex mu_{support::Rank::"
                         "kBogus}; };")))

    annotated = """\
class Ann {
  void run() {
    support::MutexLock lock(signal_mu_);
    callback();
  }
  // lint:acquires(kTaskQueue)
  void callback();
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
"""
    checks.append(("lock-order: lint:acquires declarations feed the edge "
                   "check", fires("lock-order", annotated)))

    same_rank = """\
class Same {
  void a() {
    support::MutexLock l1(mu1_);
    support::MutexLock l2(mu2_);
  }
  support::Mutex mu1_{support::Rank::kTaskQueue};
  support::Mutex mu2_{support::Rank::kTaskQueue};
};
"""
    checks.append(("lock-order: equal ranks are not 'strictly increasing'",
                   fires("lock-order", same_rank)))
    # Calls resolve by bare name; an atomic's own .store() must not link to
    # a project function that happens to be called store.
    colliding = """\
class Queue {
  void push() {
    support::MutexLock lock(signal_mu_);
    approx_size_.store(1, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> approx_size_{0};
  support::Mutex signal_mu_{support::Rank::kSchedulerSignal};
};
class Hook {
  void store() {
    support::MutexLock lock(hook_mu_);
  }
  support::Mutex hook_mu_{support::Rank::kTaskQueue};
};
"""
    checks.append(("lock-order: an atomic's .store() under a guard does not "
                   "resolve to a project function named store",
                   not any(_lint(colliding))))
    real_call = colliding.replace(
        "approx_size_.store(1, std::memory_order_relaxed);",
        "hook_.store();").replace(
        "std::atomic<std::size_t> approx_size_{0};", "Hook hook_;")
    checks.append(("lock-order: a real call to a locking helper under a "
                   "higher-ranked guard still fires",
                   fires("lock-order", real_call)))

    seeded_decompose = [
        core.SourceFile("src/support/sync.hpp", _ENUM_SRC,
                        LockRankRule.codes),
        core.SourceFile("src/decompose/sharded.cpp", nested,
                        LockRankRule.codes),
    ]
    checks.append(("lock-order: fires on seeded violation in "
                   "src/decompose/sharded.cpp",
                   any(f.code == "lock-order"
                       for f in run_check(seeded_decompose))))
    return checks


RULE = LockRankRule()
