"""Ownership rules: keep shared_ptr connection graphs collectable.

The repository's connection graphs (channels, queue pairs, rings, server
connection records) are shared_ptr-owned and wired together by stored
callbacks, which is exactly the shape that produces reference cycles — a
handler stored *inside* a channel capturing an owning pointer to the object
that owns the channel. Such a graph is unreachable but never freed;
LeakSanitizer reports it at exit, and long simulations retain every dead
connection ever made. See DESIGN.md §10 "Ownership model".

The pass builds a whole-program ownership graph over the sources:

  nodes  classes (by unqualified name)
  edges  * member fields holding shared_ptr<T> (directly or through a
           *Ptr alias, or inside vector/deque/map/multimap containers)
         * lambda captures of shared_ptr-typed values in handlers
           installed with set_on_message / set_on_broken / set_on_event
           (those setters *store* the callable inside the receiver, so
           the capture is owned by the receiver's class)

and reports every strongly-connected component as a [cycle], with the
full edge path (file:line per edge). weak_ptr fields and captures never
create edges — locking a weak_ptr per message is the sanctioned fix. A
[cycle] is suppressed if any of its edges carries an allow.

The analysis is interface-level: a handler installed through a
ChannelPtr-typed expression attaches to the `Channel` node, which is
where the cycle through `net::Channel`-owning records closes. Cycles
that only exist through a subclass-specific field are out of scope.

Flow rules (per file, lexical):
  use-after-move     a bare identifier moved with std::move(x) and then
                     used before reinitialisation (x = ..., x.reset(),
                     x.clear(), x.assign()) in the same scope. x =
                     std::move(x) (the init-capture shadowing idiom) is
                     a reinitialisation, not a move. Leaving the brace
                     scope the move happened in clears the mark, so
                     branch-alternative moves do not cross-fire.
  unchecked-status   RDMA completion results that are dropped on the
                     floor: a bare `...poll();` statement discards
                     completions unseen; a polled batch whose bound
                     variable is locally consumed without ever reading
                     `.success` (and without delegating the completion
                     to a same-file function that reads it — the check
                     is one hop deep) hides transport errors.
  reentrant-handler  a handler lambda (set_on_message / set_on_broken)
                     that calls Fabric::send at its top nesting level.
                     Handlers run inside a delivery; re-entering the
                     fabric synchronously reorders events that the
                     event queue would serialise. Posting through
                     core->submit / sim.after / a channel send is fine.
"""

from __future__ import annotations

import re
from pathlib import Path

from frontend import Finding, SourceFile, match_paren, split_top

RULES = {
    "cycle": "shared_ptr ownership cycle; break it with a weak_ptr capture or an explicit close() teardown",
    "use-after-move": "identifier used after std::move without reinitialisation",
    "unchecked-status": "RDMA completion consumed without reading .success; transport errors vanish",
    "reentrant-handler": "handler re-enters Fabric::send synchronously; post through the event queue instead",
}


# ---------------------------------------------------------------------------
# Ownership model

def base_name(type_name: str) -> str:
    """`skv::net::Channel` -> `Channel`; template args stripped by callers."""
    return type_name.split("<")[0].split("::")[-1].strip()


class Edge:
    def __init__(self, src: str, dst: str, path: Path, line: int, via: str):
        self.src = src
        self.dst = dst
        self.path = path
        self.line = line
        self.via = via

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst} ({self.path}:{self.line}: {self.via})"


class Model:
    """Whole-program ownership graph plus alias knowledge."""

    def __init__(self):
        # alias name -> pointee class (unqualified), e.g. ChannelPtr -> Channel
        self.shared_aliases: dict[str, str] = {}
        self.weak_aliases: set[str] = set()
        self.edges: list[Edge] = []

    def add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)

    def resolve_shared(self, type_text: str) -> str | None:
        """If `type_text` denotes a shared_ptr (directly, via alias, or one
        level inside a standard container), return the pointee class name."""
        t = type_text.strip()
        t = re.sub(r"^(?:const\s+|constexpr\s+|mutable\s+|static\s+)+", "", t)
        t = t.rstrip("&* ")
        m = re.match(r"(?:std\s*::\s*)?shared_ptr\s*<\s*([\w:]+)\s*>", t)
        if m:
            return base_name(m.group(1))
        m = re.match(
            r"(?:std\s*::\s*)?(?:vector|deque|list|set|multiset)\s*<\s*(.+?)\s*>$", t)
        if m:
            return self.resolve_shared(m.group(1))
        m = re.match(
            r"(?:std\s*::\s*)?(?:map|multimap|unordered_map)\s*<\s*[^,]+,\s*(.+?)\s*>$",
            t)
        if m:
            return self.resolve_shared(m.group(1))
        simple = base_name(t)
        if simple in self.shared_aliases:
            return self.shared_aliases[simple]
        return None

    def is_weak(self, type_text: str) -> bool:
        t = type_text.strip()
        if re.match(r"(?:std\s*::\s*)?weak_ptr\s*<", t):
            return True
        return base_name(t.rstrip("&* ")) in self.weak_aliases


# ---------------------------------------------------------------------------
# Extraction: aliases, class members, handler captures

ALIAS_DECL = re.compile(
    r"using\s+(\w+)\s*=\s*((?:std\s*::\s*)?(?:shared|weak)_ptr\s*<\s*[\w:]+\s*>)\s*;")
CLASS_DECL = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{]*\{")
MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+|inline\s+|const\s+)*"
    r"((?:std\s*::\s*)?[\w:]+(?:\s*<[^;()]*>)?)\s+(\w+)\s*(?:=[^;]*)?;")
LOCAL_MAKE_SHARED = re.compile(
    r"\b(?:auto|[\w:<>]+)\s+(\w+)\s*=\s*std\s*::\s*make_shared\s*<\s*([\w:]+)\s*>")
LOCAL_SHARED_FROM_THIS = re.compile(
    r"\b(?:auto|[\w:<>]+)\s+(\w+)\s*=\s*(?:this\s*->\s*)?shared_from_this\s*\(")
LOCAL_WEAK_FROM_THIS = re.compile(
    r"\b(?:auto|[\w:<>]+)\s+(\w+)\s*=\s*(?:this\s*->\s*)?weak_from_this\s*\(")
LOCAL_TYPED = re.compile(
    r"\b((?:std\s*::\s*)?[\w:]+(?:\s*<[^;()={}]*>)?)\s*(?:&|\s)\s*(\w+)\s*(?:=|;|,|\))")
WEAK_DECL = re.compile(
    r"\b((?:std\s*::\s*)?weak_ptr\s*<\s*[\w:]+\s*>|\w*[Ww]eak\w*)\s+(\w+)\s*=")


def collect_aliases(files: list[SourceFile], model: Model) -> None:
    for sf in files:
        for code in sf.code:
            for m in ALIAS_DECL.finditer(code):
                alias, target = m.group(1), m.group(2)
                pointee = re.search(r"<\s*([\w:]+)\s*>", target)
                if not pointee:
                    continue
                if "weak_ptr" in target:
                    model.weak_aliases.add(alias)
                else:
                    model.shared_aliases[alias] = base_name(pointee.group(1))


def collect_member_edges(sf: SourceFile, model: Model) -> None:
    """Walk class/struct bodies (including nested ones) and record every
    member field that owns a shared_ptr."""
    # Stack of (class_name, brace_depth_at_open) — depth measured before '{'.
    stack: list[tuple[str, int]] = []
    depth = 0
    for lineno, code in enumerate(sf.code, 1):
        m = CLASS_DECL.search(code)
        if m:
            # Depth at which this class's members sit = depth when '{' opens.
            opens_before = code[: m.end() - 1].count("{") - code[
                : m.end() - 1].count("}")
            stack.append((m.group(1), depth + opens_before))
        if stack and not m:
            cls, cls_depth = stack[-1]
            # Members live exactly one level inside the class braces and are
            # not statements inside methods (heuristic: depth match).
            if depth == cls_depth + 1:
                dm = MEMBER_DECL.match(code)
                if dm:
                    type_text, field = dm.group(1), dm.group(2)
                    if not model.is_weak(type_text):
                        pointee = model.resolve_shared(type_text)
                        if pointee:
                            model.add_edge(Edge(
                                cls, pointee, sf.path, lineno,
                                f"member '{field}' owns shared_ptr<{pointee}>"))
        depth += code.count("{") - code.count("}")
        while stack and depth <= stack[-1][1]:
            stack.pop()


def local_shared_types(code_text: str, current_class: str | None,
                       model: Model) -> dict[str, str | None]:
    """identifier -> pointee class for shared-typed locals/params in a
    region of code; identifiers known to be weak map to None."""
    types: dict[str, str | None] = {}
    for m in LOCAL_MAKE_SHARED.finditer(code_text):
        types[m.group(1)] = base_name(m.group(2))
    for m in LOCAL_SHARED_FROM_THIS.finditer(code_text):
        types[m.group(1)] = current_class or "Channel"
    for m in LOCAL_WEAK_FROM_THIS.finditer(code_text):
        types[m.group(1)] = None
    for m in WEAK_DECL.finditer(code_text):
        types[m.group(2)] = None
    for m in LOCAL_TYPED.finditer(code_text):
        type_text, name = m.group(1), m.group(2)
        if name in types:
            continue
        if model.is_weak(type_text):
            types[name] = None
            continue
        pointee = model.resolve_shared(type_text)
        if pointee:
            types[name] = pointee
    return types


def collect_handler_edges(sf: SourceFile, model: Model) -> None:
    """Find handler installations and record owning captures as edges from
    the receiver's class to the captured pointee class."""
    text, line_of = sf.text, sf.line_of

    # Method-definition context gives shared_from_this() its class. Only
    # depth-0 lines qualify: `Foo::bar(` inside a body is a call, not a
    # definition.
    class_regions: list[tuple[int, str]] = []  # (offset, class)
    offset = 0
    depth = 0
    for code in sf.code:
        # Definitions sit at depth 0, or depth 1 inside a namespace block;
        # the line-start anchor keeps `foo(kv::resp::command(x));` body
        # statements (deeper and expression-positioned) out.
        if depth <= 1:
            dm = re.match(r"[\w:<>,&*~\s]*?\b(\w+)\s*::\s*~?\w+\s*\(", code)
            if dm and dm.group(1) != "std" and not code.rstrip().endswith(";"):
                class_regions.append((offset + dm.start(1), dm.group(1)))
        depth += code.count("{") - code.count("}")
        offset += len(code) + 1

    def enclosing_class(offset: int) -> str | None:
        cls = None
        for off, name in class_regions:
            if off <= offset:
                cls = name
            else:
                break
        return cls

    for m in re.finditer(r"([\w\.\->\(\)_]*?)(?:->|\.)\s*(set_on_message|set_on_broken|set_on_event)\s*\(", text):
        setter = m.group(2)
        recv_expr = m.group(1)
        call_open = m.end() - 1
        call_close = match_paren(text, call_open)
        arg = text[call_open + 1 : call_close].lstrip()
        if not arg.startswith("["):
            continue  # not a literal lambda (nullptr, std::move(handler), ...)
        lam_open = text.index("[", call_open + 1)
        lam_close = match_paren(text, lam_open)
        captures = text[lam_open + 1 : lam_close]
        body_open = text.find("{", lam_close)
        if body_open < 0:
            continue
        body_close = match_paren(text, body_open)

        current_class = enclosing_class(m.start())
        # Type knowledge from the surrounding function region: from the
        # previous blank-slate boundary (very coarse: previous 80 lines).
        region_start = max(0, m.start() - 4000)
        types = local_shared_types(text[region_start : m.start()],
                                   current_class, model)

        # Receiver class: resolved type of the receiver expression when it is
        # a known identifier, else the interface-level Channel node
        # (set_on_event setters resolve to their owner the same way).
        recv_base = recv_expr.split(".")[-1].split("->")[-1].strip("() ")
        src_cls = types.get(recv_base) or "Channel"
        if setter == "set_on_event" and src_cls == "Channel":
            src_cls = "CompletionChannel"
        lineno = line_of(m.start())

        for item in split_top(captures, ",", angles=True):
            item = item.strip()
            if not item or item in ("this", "*this", "&", "="):
                if item == "=":
                    # default copy capture: every known shared local in the
                    # body is potentially captured by copy
                    body = text[body_open : body_close]
                    for name, pointee in types.items():
                        if pointee and re.search(rf"\b{re.escape(name)}\b",
                                                 body):
                            model.add_edge(Edge(
                                src_cls, pointee, sf.path, lineno,
                                f"{setter} handler copy-captures "
                                f"shared_ptr<{pointee}> '{name}' via [=]"))
                continue
            if item.startswith("&"):
                continue  # by-reference: no ownership
            im = re.match(r"(\w+)\s*=\s*(.*)", item, re.S)
            if im:
                init = im.group(2).strip()
                name = im.group(1)
                mv = re.match(r"std\s*::\s*move\s*\(\s*(\w+)\s*\)$", init)
                src_ident = mv.group(1) if mv else init.strip("() ")
                pointee = None
                ms = re.match(r"std\s*::\s*make_shared\s*<\s*([\w:]+)", init)
                if ms:
                    pointee = base_name(ms.group(1))
                elif re.match(r"(?:this\s*->\s*)?shared_from_this\s*\(", init):
                    pointee = current_class or "Channel"
                elif re.match(r"\w+$", src_ident):
                    pointee = types.get(src_ident)
                if pointee:
                    model.add_edge(Edge(
                        src_cls, pointee, sf.path, lineno,
                        f"{setter} handler init-captures "
                        f"shared_ptr<{pointee}> '{name}'"))
                continue
            if re.match(r"\w+$", item):
                pointee = types.get(item)
                if pointee:
                    model.add_edge(Edge(
                        src_cls, pointee, sf.path, lineno,
                        f"{setter} handler captures "
                        f"shared_ptr<{pointee}> '{item}'"))


def extract_model(files: list[SourceFile]) -> Model:
    model = Model()
    collect_aliases(files, model)
    for sf in files:
        collect_member_edges(sf, model)
    for sf in files:
        collect_handler_edges(sf, model)
    return model


# ---------------------------------------------------------------------------
# Cycle detection: Tarjan SCC over the ownership graph.

def find_cycles(model: Model) -> list[list[Edge]]:
    adj: dict[str, list[Edge]] = {}
    for e in model.edges:
        adj.setdefault(e.src, []).append(e)

    index_counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    sccs: list[set[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan (deep graphs must not hit the recursion limit).
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = index_counter[0]
                lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            edges = adj.get(node, [])
            for i in range(pi, len(edges)):
                w = edges[i].dst
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack.get(w):
                    lowlink[node] = min(lowlink[node], index[w])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                scc = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.add(w)
                    if w == node:
                        break
                sccs.append(scc)
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for v in list(adj):
        if v not in index:
            strongconnect(v)

    cycles: list[list[Edge]] = []
    for scc in sccs:
        intra = [e for e in model.edges if e.src in scc and e.dst in scc]
        if len(scc) > 1:
            cycles.append(intra)
        elif any(e.src == e.dst for e in intra):
            cycles.append([e for e in intra if e.src == e.dst])
    return cycles


def cycle_findings(files: list[SourceFile]) -> list[Finding]:
    files_by_path = {sf.path: sf for sf in files}
    findings = []
    for edges in find_cycles(extract_model(files)):
        if not edges:
            continue
        if any(
            (sf := files_by_path.get(e.path)) and sf.suppressed(e.line, "cycle")
            for e in edges
        ):
            continue
        edges = sorted(edges, key=lambda e: (str(e.path), e.line))
        path_desc = "; ".join(str(e) for e in edges)
        head = edges[0]
        findings.append(Finding(head.path, head.line, "cycle", path_desc))
    return findings


# ---------------------------------------------------------------------------
# Flow rules (lexical, per file)

MOVE = re.compile(r"std\s*::\s*move\s*\(\s*(\w+)\s*\)")
SELF_REINIT = re.compile(r"\b(\w+)\s*=\s*std\s*::\s*move\s*\(\s*\1\s*\)")


def check_use_after_move(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    moved: dict[str, tuple[int, int]] = {}  # name -> (line, depth at move)
    depth = 0
    for lineno, code in enumerate(sf.code, 1):
        # Scope exits clear marks made in scopes this line leaves. Track the
        # minimum depth reached anywhere in the line: `} else {` dips below
        # its start depth even though it ends back where it began.
        opens = code.count("{")
        d, low = depth, depth
        for c in code:
            if c == "{":
                d += 1
            elif c == "}":
                d -= 1
                low = min(low, d)
        depth_after = d
        for name in [n for n, (_, md) in moved.items() if md > low]:
            del moved[name]
        if depth_after <= 0:
            moved.clear()

        self_reinits = {m.group(1) for m in SELF_REINIT.finditer(code)}
        new_moves = []
        for m in MOVE.finditer(code):
            name = m.group(1)
            if name in self_reinits:
                continue
            new_moves.append(name)

        # Reinitialisation on this line neutralises earlier moves (and moves
        # feeding an assignment to the same name, `x = f(std::move(x))`).
        for name in list(moved):
            if re.search(
                rf"\b{re.escape(name)}\s*(?:=[^=]|\.reset\s*\(|\.clear\s*\(|\.assign\s*\()",
                code,
            ):
                del moved[name]

        # Uses of still-marked names (before this line's own moves land).
        for name, (mline, _) in list(moved.items()):
            if re.search(
                rf"\b{re.escape(name)}\s*(?:=[^=]|\.reset\s*\(|\.clear\s*\(|\.assign\s*\()",
                code,
            ):
                continue
            if re.search(rf"\b{re.escape(name)}\b", code):
                if not sf.suppressed(lineno, "use-after-move"):
                    findings.append(Finding(
                        sf.path, lineno, "use-after-move",
                        f"'{name}' moved at line {mline}"))
                del moved[name]

        for name in new_moves:
            if re.search(
                rf"\b{re.escape(name)}\s*=[^=]", code.split("std::move")[0]
            ) or re.search(
                rf"\b{re.escape(name)}\s*=\s*[\w:]+.*std\s*::\s*move\s*\(\s*{re.escape(name)}\s*\)",
                code,
            ):
                # `x = f(std::move(x))`: net effect is a reinitialisation.
                moved.pop(name, None)
                continue
            moved[name] = (lineno, depth + opens)
        depth = depth_after
    return findings


BARE_POLL = re.compile(r"^\s*[\w\.\->_]*\bpoll\s*\([^;]*\)\s*;\s*$")
POLL_BOUND = re.compile(
    r"for\s*\(\s*(?:const\s+)?auto\s*&?\s*(\w+)\s*:\s*[\w\.\->_]*\bpoll\s*\(")
COMPLETION_PARAM_FN = re.compile(
    r"\b(\w+)\s*\(\s*(?:const\s+)?Completion\s*&\s*(\w+)\s*\)")


def check_unchecked_status(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    text = sf.text

    # One-hop delegation knowledge: functions taking a Completion& and
    # whether their body (approximated by the following brace block) reads
    # `.success`.
    delegates: dict[str, bool] = {}
    for m in COMPLETION_PARAM_FN.finditer(text):
        fn, param = m.group(1), m.group(2)
        body_open = text.find("{", m.end())
        semi = text.find(";", m.end())
        if body_open < 0 or (0 <= semi < body_open):
            continue  # declaration only: body unknown, benefit of the doubt
        body = text[body_open : match_paren(text, body_open) + 1]
        delegates[fn] = bool(
            re.search(rf"\b{re.escape(param)}\s*\.\s*success\b", body))

    # Brace depth after each line, to bound poll regions to their function.
    depth_after_line = []
    d = 0
    for code in sf.code:
        d += code.count("{") - code.count("}")
        depth_after_line.append(d)

    for lineno, code in enumerate(sf.code, 1):
        if BARE_POLL.match(code):
            if not sf.suppressed(lineno, "unchecked-status"):
                findings.append(Finding(
                    sf.path, lineno, "unchecked-status",
                    "completions polled and discarded"))
            continue
        pm = POLL_BOUND.search(code)
        if pm:
            var = pm.group(1)
            # Scope of interest: from the poll to the end of the enclosing
            # function (first line whose depth returns to 0).
            end = lineno
            while end < len(sf.code) and depth_after_line[end - 1] > 0:
                end += 1
            region = "\n".join(sf.code[lineno - 1 : end])
            if re.search(rf"\b{re.escape(var)}\s*\.\s*success\b", region):
                continue
            dm = re.search(rf"\b(\w+)\s*\(\s*{re.escape(var)}\s*[,)]", region)
            if dm and delegates.get(dm.group(1), dm.group(1) not in delegates):
                # Delegated to a function that reads .success (or to one we
                # cannot see — give cross-file delegation the benefit of the
                # doubt).
                continue
            if not sf.suppressed(lineno, "unchecked-status"):
                detail = f"polled batch '{var}' never reads .success"
                if dm and dm.group(1) in delegates:
                    detail += (f"; delegated to '{dm.group(1)}' which never "
                               f"reads .success either")
                findings.append(Finding(sf.path, lineno, "unchecked-status",
                                        detail))
    return findings


FABRIC_SEND = re.compile(r"\bfabric(?:\(\)|_)\s*(?:\.|->)\s*send\s*\(")


def check_reentrant_handler(sf: SourceFile) -> list[Finding]:
    findings: list[Finding] = []
    text = sf.text
    for m in re.finditer(
        r"(?:->|\.)\s*(?:set_on_message|set_on_broken)\s*\(\s*\[", text
    ):
        lam_open = text.index("[", m.start())
        lam_close = match_paren(text, lam_open)
        body_open = text.find("{", lam_close)
        if body_open < 0:
            continue
        body_close = match_paren(text, body_open)
        body = text[body_open + 1 : body_close]
        # Mask nested lambdas: a fabric send inside a core->submit / after
        # callback goes through the event queue and is fine.
        masked = []
        i = 0
        while i < len(body):
            if body[i] == "[":
                # Potential nested lambda: [caps] (params)? { body }
                cap_close = match_paren(body, i)
                j = cap_close + 1
                while j < len(body) and body[j] in " \n\t":
                    j += 1
                if j < len(body) and body[j] == "(":
                    j = match_paren(body, j) + 1
                    while j < len(body) and body[j] in " \n\t":
                        j += 1
                if j < len(body) and body[j] == "{":
                    nested_close = match_paren(body, j)
                    masked.append(" " * (nested_close - i + 1))
                    i = nested_close + 1
                    continue
            masked.append(body[i])
            i += 1
        flat = "".join(masked)
        fm = FABRIC_SEND.search(flat)
        if fm:
            lineno = sf.line_of(body_open + 1 + fm.start())
            if not sf.suppressed(lineno, "reentrant-handler"):
                findings.append(Finding(
                    sf.path, lineno, "reentrant-handler",
                    "Fabric::send at handler top level"))
    return findings


def check(files: list[SourceFile]) -> list[Finding]:
    findings = cycle_findings(files)
    for sf in files:
        findings += check_use_after_move(sf)
        findings += check_unchecked_status(sf)
        findings += check_reentrant_handler(sf)
    return findings
