"""Line-oriented text formats for workloads, schedules, and polygraphs.

Workload documents declare transactions and an allocation::

    txn T1: R(t) W(t) C
    txn T2: R(t) W(t) C
    alloc T1=SI T2=SI          # or: alloc predicate=view-serializable-only

Schedule documents embed the same transaction (and optionally allocation)
lines, followed by the operation order, the version read by each read, and
the per-object version chains::

    order: W2(t) R4(t) W3(v) C3 R1(t) C1 R2(v) C2 W4(t) R4(v) C4
    reads: R1(t)<-init R2(v)<-init R4(t)<-init R4(v)<-W3(v)
    vorder t: init<W2(t)<W4(t)
    vorder v: init<W3(v)

Operations are referenced positionally (``T1#2``) or, when unambiguous, by
the compact form ``R1(t)`` / ``W4(t)`` / ``C2`` for transactions named
``T<number>``.  ``#`` starts a comment at the beginning of a line or after
whitespace, so positional references survive.  Renderers emit a canonical
form that parses back to the identical value.
"""

from __future__ import annotations

import re

from .core import (
    INIT,
    Action,
    Operation,
    OperationId,
    Schedule,
    Transaction,
    make_schedule,
    make_transaction,
    validate_schedule,
    validate_transaction,
)
from .errors import ParseError
from .isolation import Allocation, IsolationLevel, LevelAllocation, PredicateAllocation
from .polygraph import Polygraph, validate_polygraph
from .robustness import Workload

_POSITIONAL = re.compile(r"^(\S+)#(\d+)$")
_SHORT_RW = re.compile(r"^([RW])(\d+)\((\S+)\)$")
_SHORT_COMMIT = re.compile(r"^C(\d+)$")
_NUMBERED_TXN = re.compile(r"^T(\d+)$")
# a '#' at line start or after whitespace; led by the '#' so the search skips to each one
_COMMENT = re.compile(r"#(?<!\S#)")
_HEAD_END = re.compile(r":(?=\s|\Z)")  # a colon before whitespace or the end
_READ, _WRITE, _COMMIT = Action
_LEVELS = {level.value: level for level in IsolationLevel}


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of each line left nonempty without its comment and outer whitespace."""
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line and (m := _COMMENT.search(line)):
            line = line[: m.start()]
        if line := line.strip():
            lines.append((lineno, line))
    return lines


def _split_keyword_head(line: str, keyword: str, lineno: int) -> tuple[str, str]:
    """Split ``<keyword> <head>: <rest>`` where head may itself contain colons.

    The separator is the first colon followed by whitespace or end of line.
    """
    body = line[len(keyword) :].strip()
    m = _HEAD_END.search(body)
    if m is None:
        raise ParseError(f"expected '{keyword} <name>: ...'", lineno)
    return body[: m.start()].strip(), body[m.end() :].strip()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _parse_txn_line(line: str, lineno: int) -> Transaction:
    tid, rest = _split_keyword_head(line, "txn", lineno)
    if not tid:
        raise ParseError("transaction declaration without an id", lineno)
    if "<" in tid:
        raise ParseError(f"transaction id {tid!r} contains '<', which version chains split on", lineno)
    try:
        t = make_transaction(tid, rest)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    # ids are positional by construction; one 'C' that ends the line is one commit, placed last
    if rest.count("C") != 1 or rest[-1] != "C":
        bad = validate_transaction(t)
        if bad:
            raise ParseError(f"invalid transaction {tid!r}: " + "; ".join(map(str, bad)), lineno)
    return t


def _parse_declarations(text: str) -> tuple[dict[str, Transaction], Allocation | None, list[tuple[int, str]]]:
    """Shared front end: transaction and allocation lines, plus the rest."""
    txns: dict[str, Transaction] = {}
    entries: dict[str, IsolationLevel] = {}
    predicate: list[str] = []
    rest: list[tuple[int, str]] = []
    for lineno, line in _logical_lines(text):
        word = line.split(None, 1)[0]
        if word == "txn":
            t = _parse_txn_line(line, lineno)
            if t.id in txns:
                raise ParseError(f"duplicate transaction id {t.id!r}", lineno)
            txns[t.id] = t
        elif word == "alloc":
            for token in line.split()[1:]:
                if "=" not in token:
                    raise ParseError(f"bad allocation token {token!r}; expected <txn>=<level>", lineno)
                key, value = token.rsplit("=", 1)
                if key == "predicate":
                    predicate.append(value)
                    continue
                level = _LEVELS.get(value)
                if level is None:
                    raise ParseError(f"unknown isolation level {value!r}", lineno)
                if key in entries:
                    raise ParseError(f"duplicate allocation for transaction {key!r}", lineno)
                entries[key] = level
        else:
            rest.append((lineno, line))
    alloc: Allocation | None = None
    if predicate:
        if len(predicate) > 1 or entries:
            raise ParseError("a predicate allocation cannot be combined with level entries")
        try:
            alloc = PredicateAllocation(predicate[0])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    elif entries:
        alloc = LevelAllocation(entries)
    return txns, alloc, rest


def parse_workload(text: str) -> Workload:
    """Parse a workload document into transactions plus their allocation."""
    txns, alloc, rest = _parse_declarations(text)
    if rest:
        lineno, line = rest[0]
        raise ParseError(f"unexpected line in workload document: {line!r}", lineno)
    if not txns:
        raise ParseError("workload document declares no transactions")
    if alloc is None:
        raise ParseError("workload document declares no allocation")
    if isinstance(alloc, LevelAllocation):
        missing = sorted(set(txns) - set(alloc.levels))
        if missing:
            raise ParseError(f"allocation misses transactions: {', '.join(missing)}")
        extra = sorted(set(alloc.levels) - set(txns))
        if extra:
            raise ParseError(f"allocation names unknown transactions: {', '.join(extra)}")
    return Workload(tuple(txns.values()), alloc)


def _txn_op_token(op: Operation) -> str:
    if op.is_commit:
        return "C"
    return f"{op.action.value}({op.obj})"


def render_workload(w: Workload) -> str:
    """Canonical workload document; parsing it back returns an equal workload."""
    lines = [f"txn {t.id}: " + " ".join(_txn_op_token(op) for op in t.ops) for t in w.txns]
    lines.append("alloc " + _render_alloc(w.alloc))
    return "\n".join(lines) + "\n"


def _render_alloc(alloc: Allocation) -> str:
    if isinstance(alloc, PredicateAllocation):
        return f"predicate={alloc.name}"
    return " ".join(f"{tid}={lvl.value}" for tid, lvl in sorted(alloc.levels.items()))


# ---------------------------------------------------------------------------
# Operation references
# ---------------------------------------------------------------------------


class _OpResolver:
    """Operation references of one document: a canonical spelling (``T1#2``, and
    ``R1(x)``, ``W1(x)``, ``C1`` where unambiguous) is one lookup in ``ids``, which
    gains the compact ones at the first miss; any other token goes through the
    grammar, which also words the errors."""

    def __init__(self, txns: dict[str, Transaction]):
        self.txns, self.compact = txns, False
        ids = self.ids = {"init": INIT}
        for tid, t in txns.items():
            for k, op in enumerate(t.ops, start=1):
                ids[f"{tid}#{k}"] = op.id

    def table(self) -> dict[str, OperationId | None]:
        """``ids`` with the compact spellings added (None: ambiguous)."""
        if not self.compact:
            self.compact, ids = True, self.ids
            for tid, t in self.txns.items():
                m = _NUMBERED_TXN.match(tid)
                for opid, action, obj in t.ops if m else ():
                    short = f"C{m[1]}" if obj is None else f"{'R' if action is _READ else 'W'}{m[1]}({obj})"
                    ids[short] = None if short in ids else opid
        return self.ids

    def resolve(self, token: str, lineno: int) -> OperationId:
        opid = self.table().get(token)
        if opid is not None:
            return opid
        m = _POSITIONAL.match(token)
        if m:
            tid, index = m.group(1), int(m.group(2))
            t = self.txns.get(tid)
            if t is None:
                raise ParseError(f"unknown transaction {tid!r} in {token!r}", lineno)
            if not 1 <= index <= len(t.ops):
                raise ParseError(f"operation index out of range in {token!r}", lineno)
            return t.ops[index - 1].id
        m = _SHORT_COMMIT.match(token)
        if m:
            t = self.txns.get("T" + m.group(1))
            if t is None:
                raise ParseError(f"unknown transaction T{m.group(1)} in {token!r}", lineno)
            commits = [op.id for op in t.ops if op.action is _COMMIT]
            if len(commits) != 1:
                raise ParseError(f"{token!r} is ambiguous: transaction has {len(commits)} commits", lineno)
            return commits[0]
        m = _SHORT_RW.match(token)
        if m:
            action = _READ if m.group(1) == "R" else _WRITE
            t = self.txns.get("T" + m.group(2))
            if t is None:
                raise ParseError(f"unknown transaction T{m.group(2)} in {token!r}", lineno)
            hits = [op.id for op in t.ops if op.action is action and op.obj == m.group(3)]
            if not hits:
                raise ParseError(f"no operation matches {token!r}", lineno)
            if len(hits) > 1:
                raise ParseError(
                    f"{token!r} is ambiguous: use a positional reference like {hits[0]!r}", lineno
                )
            return hits[0]
        raise ParseError(f"unrecognized operation reference {token!r}", lineno)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def parse_schedule(text: str, workload: Workload | None = None, *, validate: bool = True) -> Schedule:
    """Parse a schedule document; see :func:`parse_schedule_document`."""
    return parse_schedule_document(text, workload, validate=validate)[0]


def parse_schedule_document(
    text: str, workload: Workload | None = None, *, validate: bool = True
) -> tuple[Schedule, Allocation | None]:
    """Parse a schedule document into the schedule and the allocation it runs under.

    Transactions come from the embedded ``txn`` lines or from ``workload``;
    when both are present they must agree.  The allocation is the
    workload's when one is given, else the embedded ``alloc`` line's (None
    when there is neither).  ``init`` tokens stay where they are written;
    INIT leads the order and each version chain only if left out.  With
    ``validate`` (the default) the schedule must pass
    :func:`validate_schedule`, otherwise a :class:`ParseError` lists the
    defects.
    """
    embedded, alloc, rest = _parse_declarations(text)
    if workload is not None:
        alloc = workload.alloc
        declared = {t.id: t for t in workload.txns}
        if embedded and embedded != declared:
            raise ParseError("embedded transaction declarations disagree with the workload document")
        txns = declared
    else:
        txns = embedded
    if not txns:
        raise ParseError("schedule document has no transactions (embed txn lines or pass a workload)")

    resolver = _OpResolver(txns)
    ids, resolve = resolver.ids, resolver.resolve  # ids gains the compact spellings on a miss
    order: list[OperationId] | None = None
    vf: dict[OperationId, OperationId] = {}
    vorder: dict[str, tuple[OperationId, ...]] = {}

    for lineno, line in rest:
        word = line.split(None, 1)[0]
        if word == "order:":
            if order is not None:
                raise ParseError("duplicate order line", lineno)
            tokens = line[len("order:") :].split()
            order = list(map(ids.get, tokens))
            if None in order:
                order = [resolve(token, lineno) for token in tokens]
        elif word == "reads:":
            for entry in line[len("reads:") :].split():
                left, arrow, right = entry.partition("<-")
                if not arrow:
                    raise ParseError(f"bad read entry {entry!r}; expected <read><-<write|init>", lineno)
                rid = ids.get(left) or resolve(left, lineno)
                target = ids.get(right) or resolve(right, lineno)
                if rid in vf:
                    raise ParseError(f"duplicate read mapping for {left!r}", lineno)
                vf[rid] = target
        elif word == "vorder":
            obj, chain_text = _split_keyword_head(line, "vorder", lineno)
            if obj in vorder:
                raise ParseError(f"duplicate vorder line for object {obj!r}", lineno)
            tokens = chain_text.split("<")
            chain = tuple(map(ids.get, tokens))
            if None in chain:
                chain = []
                for token in map(str.strip, tokens):
                    if not token:
                        raise ParseError(f"empty element in vorder chain for {obj!r}", lineno)
                    chain.append(resolve(token, lineno))
            vorder[obj] = tuple(chain)
        else:
            raise ParseError(f"unexpected line in schedule document: {line!r}", lineno)

    if order is None:
        raise ParseError("schedule document has no order line")
    s = make_schedule(txns.values(), order, vorder, vf)
    if validate:
        bad = validate_schedule(s)
        if bad:
            raise ParseError("invalid schedule: " + "; ".join(str(v) for v in bad[:8]))
    return s, alloc


def render_schedule(s: Schedule, alloc: Allocation | None = None) -> str:
    """Canonical, self-contained schedule document.

    Embeds the transaction declarations (and the allocation when given) so
    the output can be fed back to any command on its own.
    """
    lines = [f"txn {t.id}: " + " ".join(_txn_op_token(op) for op in t.ops) for t in s.txns]
    if alloc is not None:
        lines.append("alloc " + _render_alloc(alloc))
    # canonical token per operation: the resolver's table, where a compact
    # spelling comes after the positional one and ambiguous ones map to None
    token = {opid: tok for tok, opid in _OpResolver(s.txn_by_id).table().items() if opid is not None}
    lines.append("order: " + " ".join(token[opid] for opid in s.order if not opid.is_init))
    read_ids = sorted(op.id for t in s.txns for op in t.ops if op.is_read)
    if read_ids:
        lines.append("reads: " + " ".join(f"{token[rid]}<-{token[s.vf[rid]]}" for rid in read_ids))
    for obj in sorted(s.vorder):
        chain = s.vorder[obj]
        if len(chain) <= 1:
            continue
        lines.append(f"vorder {obj}: " + "<".join(token[opid] for opid in chain))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Polygraphs
# ---------------------------------------------------------------------------


def parse_polygraph(text: str) -> Polygraph:
    """Parse ``node``/``arc``/``choice`` lines into a validated polygraph."""
    nodes: list[str] = []
    arcs: list[tuple[str, str]] = []
    choices: list[tuple[str, str, str]] = []
    for lineno, line in _logical_lines(text):
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "node":
            if not args:
                raise ParseError("node line without node names", lineno)
            nodes.extend(args)
        elif keyword == "arc":
            if len(args) != 2:
                raise ParseError("arc line needs exactly two nodes", lineno)
            arcs.append((args[0], args[1]))
        elif keyword == "choice":
            if len(args) != 3:
                raise ParseError("choice line needs exactly three nodes", lineno)
            choices.append((args[0], args[1], args[2]))
        else:
            raise ParseError(f"unexpected line in polygraph document: {line!r}", lineno)
    p = Polygraph.of(nodes, arcs, choices)
    bad = validate_polygraph(p)
    if bad:
        raise ParseError("invalid polygraph: " + "; ".join(map(str, bad)))
    return p

