"""Token frontend: a token/scope analyzer for the simcheck IR.

No dependency beyond the Python stdlib, so the checker runs in a bare
checkout with no configure step. It is a *recognizer*, not a compiler: it
tracks namespaces, classes (with bases and member types), function
definitions (with qualified names), lambdas (captures, coroutine-ness,
escape route), range-for loops (iterable typing through
members/locals/params), statics at every scope, allocation sites, and
name-level call sites. Anything it cannot prove it leaves unknown — the
structural rules fire on positive evidence only."""

from __future__ import annotations

from pathlib import Path

from .lex import (KEYWORDS, LAMBDA_PRECEDERS, Tok, blank_directives,
                  match_forward, skip_template_args, strip_and_harvest,
                  tokenize)
from .model import (AllocSite, CallSite, ClassInfo, ContainerDecl, Function,
                    LambdaSite, LoopSite, SourceModel, StaticVar)

CONTAINER_TEMPLATES = {
    "map", "set", "multimap", "multiset",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}
UNORDERED_TEMPLATES = {t for t in CONTAINER_TEMPLATES if "unordered" in t}
GROWTH_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "try_emplace", "insert", "insert_or_assign", "resize", "reserve",
    "append", "assign",
}
# Methods whose name alone implies a std container — flagged even when the
# receiver cannot be typed. The rest ('reserve', 'insert', ...) are generic
# verbs this codebase also uses for non-allocating things (Pipe::reserve is
# a bandwidth reservation returning a Time) and need a typed receiver.
STRONG_GROWTH = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "try_emplace", "insert_or_assign",
}
CONTAINER_TYPE_HINTS = ("vector", "deque", "map", "set", "string", "list",
                        "basic_string")
ALLOC_CALLS = {
    "make_unique": "make_unique", "make_shared": "make_shared",
    "malloc": "malloc", "calloc": "malloc", "realloc": "malloc",
}
# Mutating verbs that make an unordered loop body order-visible even when
# the target is reached through a call rather than an assignment.
MUTATING_SINKS = GROWTH_METHODS | {
    "erase", "fire", "fail", "require", "require_eq", "schedule", "add",
    "add_check", "send", "post", "record", "count", "push", "pop",
}
SPECIFIERS = {
    "static", "inline", "constexpr", "consteval", "constinit", "const",
    "thread_local", "mutable", "extern", "virtual", "explicit", "friend",
    "typename", "register", "volatile",
}


def _type_of(tokens: list[Tok]) -> str:
    return " ".join(t.text for t in tokens)


def _container_template(type_str: str) -> str:
    """'std::unordered_map< K , V >' -> 'unordered_map' ('' if none)."""
    toks = type_str.replace("<", " < ").split()
    for i, t in enumerate(toks):
        if t in CONTAINER_TEMPLATES and i + 1 < len(toks) and \
                toks[i + 1] == "<":
            return t
    return ""


def _key_of(type_str: str) -> str:
    """First top-level template argument of the container in type_str."""
    lt = type_str.find("<")
    if lt == -1:
        return ""
    depth = 0
    out = []
    for ch in type_str[lt:]:
        if ch == "<":
            depth += 1
            if depth == 1:
                continue
        elif ch == ">":
            depth -= 1
            if depth == 0:
                break
        elif ch == "," and depth == 1:
            break
        out.append(ch)
    return "".join(out).strip()


def _is_ptr_key(key: str) -> bool:
    """Pointer-typed key at top level (Foo*, const Foo *, Foo<T>*)."""
    k = key.strip()
    return k.endswith("*")


class FileParser:
    def __init__(self, path: Path, rel: str, sm: SourceModel):
        self.rel = rel
        self.sm = sm
        text = path.read_text(encoding="utf-8", errors="replace")
        stripped, allows = strip_and_harvest(text)
        sm.allows[rel] = allows
        sm.stripped[rel] = stripped
        self.toks = tokenize(blank_directives(stripped))
        self.n = len(self.toks)
        # function bodies and initializer spans, walked in a second pass
        # (see _parse_function and _init_span)
        self.pending: list[tuple[Function, int, int, dict[str, str]]] = []

    # -- declaration scope ---------------------------------------------------

    def parse(self) -> None:
        self.parse_decls(0, self.n, ns=[], cls=None)

    def parse_decls(self, i: int, end: int,
                    ns: list[str], cls: ClassInfo | None) -> None:
        while i < end:
            t = self.toks[i]
            txt = t.text
            if txt == "namespace":
                i = self._parse_namespace(i, end, ns, cls)
            elif txt in ("class", "struct", "union"):
                i = self._parse_class(i, end, ns, cls)
            elif txt == "enum":
                i = self._skip_enum(i, end)
            elif txt == "template":
                i = self._skip_template_header(i + 1, end)
            elif txt in ("using", "typedef", "static_assert", "friend"):
                i = self._skip_past(i, end, ";")
            elif txt in ("public", "private", "protected") and \
                    i + 1 < end and self.toks[i + 1].text == ":":
                i += 2
            elif txt == "extern" and i + 1 < end and \
                    self.toks[i + 1].text == "{":
                inner_end = match_forward(self.toks, i + 1, "{", "}")
                self.parse_decls(i + 2, inner_end - 1, ns, cls)
                i = inner_end
            elif txt == ";" or txt == "}":
                i += 1
            else:
                i = self._parse_declaration(i, end, ns, cls)

    def _parse_namespace(self, i: int, end: int, ns: list[str],
                         cls: ClassInfo | None) -> int:
        j = i + 1
        parts: list[str] = []
        while j < end and self.toks[j].text not in ("{", ";", "="):
            if self.toks[j].kind == "id":
                parts.append(self.toks[j].text)
            j += 1
        if j >= end or self.toks[j].text != "{":
            return self._skip_past(i, end, ";")  # namespace alias
        inner_end = match_forward(self.toks, j, "{", "}")
        self.parse_decls(j + 1, inner_end - 1, ns + parts, cls)
        return inner_end

    def _parse_class(self, i: int, end: int, ns: list[str],
                     cls: ClassInfo | None) -> int:
        j = i + 1
        name = ""
        while j < end and self.toks[j].text not in ("{", ";", ":", "("):
            if self.toks[j].kind == "id" and \
                    self.toks[j].text not in ("final", "alignas"):
                name = self.toks[j].text
            elif self.toks[j].text == "<":
                j = skip_template_args(self.toks, j) - 1
            j += 1
        if j >= end:
            return end
        if self.toks[j].text == ";":
            return j + 1  # forward declaration
        if self.toks[j].text == "(":
            # `struct X { .. } x(...)` oddity or macro call; bail to ';'.
            return self._skip_past(i, end, ";")
        bases: list[str] = []
        if self.toks[j].text == ":":
            j += 1
            while j < end and self.toks[j].text != "{":
                if self.toks[j].kind == "id" and self.toks[j].text not in (
                        "public", "private", "protected", "virtual"):
                    bases.append(self.toks[j].text)
                elif self.toks[j].text == "<":
                    j = skip_template_args(self.toks, j) - 1
                j += 1
        if j >= end or self.toks[j].text != "{":
            return j
        qname = "::".join([p for p in ns if p] + ([name] if name else []))
        info = self.sm.classes.setdefault(qname or name,
                                          ClassInfo(qname=qname or name))
        for b in bases:
            if b not in info.bases:
                info.bases.append(b)
        inner_end = match_forward(self.toks, j, "{", "}")
        self.parse_decls(j + 1, inner_end - 1,
                         ns + ([name] if name else []), info)
        # Trailing `} name;` instance declarations are skipped by caller.
        return inner_end

    def _skip_enum(self, i: int, end: int) -> int:
        j = i
        while j < end and self.toks[j].text not in ("{", ";"):
            j += 1
        if j < end and self.toks[j].text == "{":
            j = match_forward(self.toks, j, "{", "}")
        return self._skip_past(j, end, ";") if j < end else end

    def _skip_template_header(self, i: int, end: int) -> int:
        if i < end and self.toks[i].text == "<":
            return skip_template_args(self.toks, i)
        return i

    def _skip_past(self, i: int, end: int, stop: str) -> int:
        depth = 0
        while i < end:
            t = self.toks[i].text
            if t in ("{", "(", "["):
                depth += 1
            elif t in ("}", ")", "]"):
                depth -= 1
            elif t == stop and depth <= 0:
                return i + 1
            i += 1
        return end

    # -- one declaration at namespace/class scope ----------------------------

    def _parse_declaration(self, i: int, end: int, ns: list[str],
                           cls: ClassInfo | None) -> int:
        """Either a function definition (analyzed), a function prototype
        (skipped), or a variable/field declaration (recorded)."""
        start = i
        specs: set[str] = set()
        annotations: set[str] = set()
        prefix: list[Tok] = []         # type tokens (keeps '<...>' inline)
        name = ""
        name_line = self.toks[i].line
        qual: list[str] = []           # A::B qualifier chain before name
        j = i
        while j < end:
            t = self.toks[j]
            txt = t.text
            if txt in SPECIFIERS:
                specs.add(txt)
                j += 1
            elif txt == "MNS_HOT" or txt.startswith("MNS_HOT_"):
                annotations.add("MNS_HOT")
                j += 1
            elif txt == "operator":
                # operator functions: name is 'operator X'
                k = j + 1
                op = []
                while k < end and self.toks[k].text != "(":
                    op.append(self.toks[k].text)
                    k += 1
                # operator() has its '(' as part of the name
                if not op and k + 1 < end and self.toks[k].text == "(" \
                        and self.toks[k + 1].text == ")":
                    op = ["(", ")"]
                    k += 2
                name = "operator" + "".join(op)
                name_line = t.line
                j = k
                break
            elif txt == "<":
                # '<' after a pending name means the name was a template
                # type (std::vector<...>), not the declarator — flush it
                # (and its qualifier chain) into the type prefix.
                if name:
                    for q in qual:
                        prefix.append(Tok("id", q, name_line))
                    qual = []
                    prefix.append(Tok("id", name, name_line))
                    name = ""
                close = skip_template_args(self.toks, j)
                prefix.extend(self.toks[j:close])
                j = close
            elif txt == "(":
                break
            elif txt in (";", "{", "=", "}"):
                break
            elif txt == "::":
                if name:
                    qual.append(name)
                    name = ""
                j += 1
            elif t.kind == "id" and txt not in KEYWORDS:
                if name:
                    # previous identifier (and any A::B chain) was the
                    # type; this one starts a fresh declarator candidate
                    for q in qual:
                        prefix.append(Tok("id", q, name_line))
                    qual = []
                    prefix.append(Tok("id", name, name_line))
                name = txt
                name_line = t.line
                j += 1
            else:
                prefix.append(t)
                j += 1

        if j >= end:
            return end
        stop = self.toks[j].text
        if stop == "(" and name:
            return self._parse_function(start, j, end, ns, cls, specs,
                                        annotations, prefix, qual, name,
                                        name_line)
        # Variable / field declaration (possibly `Foo x{...};`).
        type_str = _type_of(prefix)
        init = j + 1
        if stop == "{":
            close = match_forward(self.toks, j, "{", "}")
            j = self._skip_past(close, end, ";") - 1
        elif stop == "=":
            j = self._skip_past(j, end, ";") - 1
        if cls is not None and name and stop in ("{", "="):
            self._init_span(cls.qname + "::" + name, cls.qname, name_line,
                            init, j)
        if name and "using" not in specs:
            self._record_variable(name, name_line, type_str, specs, ns, cls)
        return max(j + 1, start + 1)

    def _record_variable(self, name: str, line: int, type_str: str,
                         specs: set[str], ns: list[str],
                         cls: ClassInfo | None) -> None:
        qname = "::".join([p for p in ns if p] + [name])
        tmpl = _container_template(type_str)
        owner = cls.qname if cls else "::".join(p for p in ns if p)
        if tmpl:
            key = _key_of(type_str)
            self.sm.containers.append(ContainerDecl(
                name=name, file=self.rel, line=line, type_str=type_str,
                template=tmpl, key_type=key, ptr_key=_is_ptr_key(key),
                owner=owner))
        if cls is not None:
            cls.member_types[name] = type_str
            if "static" in specs and "const" not in specs and \
                    "constexpr" not in specs:
                self.sm.statics.append(StaticVar(
                    name=name, qname=cls.qname + "::" + name, file=self.rel,
                    line=line, kind="static_member", type_str=type_str,
                    is_const=False))
            return
        if "extern" in specs:
            return
        is_const = "const" in specs or "constexpr" in specs or \
            "consteval" in specs
        kind = "thread_local" if "thread_local" in specs else "namespace"
        self.sm.statics.append(StaticVar(
            name=name, qname=qname, file=self.rel, line=line, kind=kind,
            type_str=type_str, is_const=is_const))

    # -- functions -----------------------------------------------------------

    def _parse_function(self, start: int, lparen: int, end: int,
                        ns: list[str], cls: ClassInfo | None,
                        specs: set[str], annotations: set[str],
                        prefix: list[Tok], qual: list[str], name: str,
                        name_line: int) -> int:
        params_end = match_forward(self.toks, lparen, "(", ")")
        j = params_end
        inits = 0
        # Scan the post-parameter region for the body '{', a ';' (prototype)
        # or '= default/delete/0;'.
        while j < end:
            txt = self.toks[j].text
            if txt in ("noexcept", "requires") and j + 1 < end and \
                    self.toks[j + 1].text == "(":
                j = match_forward(self.toks, j + 1, "(", ")")
            elif txt == "->":
                j += 1
            elif txt == "<":
                j = skip_template_args(self.toks, j)
            elif txt == ":":
                inits = j + 1
                j = self._skip_ctor_inits(j + 1, end)
            elif txt == "{":
                break
            elif txt in (";", "="):
                if txt == "=":
                    return self._skip_past(j, end, ";")
                # Prototype: if it declared a returned variable like
                # `int x(5);` we cannot tell — treat as prototype either way.
                return j + 1
            else:
                j += 1
        if j >= end:
            return end
        body_end = match_forward(self.toks, j, "{", "}")

        cls_qname = cls.qname if cls else ""
        if qual and not cls_qname:
            # Out-of-line member definition Cls::fn — attach to the class.
            cls_qname = "::".join([p for p in ns if p] + qual)
            alt = qual[-1]
            if cls_qname not in self.sm.classes:
                for cq in self.sm.classes:
                    if cq == alt or cq.endswith("::" + alt):
                        cls_qname = cq
                        break
        parts = [p for p in ns if p]
        if cls is None and qual:
            parts += qual
        elif cls is not None:
            pass  # class name already folded into cls.qname
        qname = (cls_qname + "::" + name) if cls_qname else \
            "::".join(parts + [name])

        fn = Function(qname=qname, name=name, cls=cls_qname, file=self.rel,
                      line=name_line, annotations=set(annotations))
        param_types = self._param_types(lparen + 1, params_end - 1)
        # Defer the body walk until every file's declaration scope has been
        # parsed: an inline method may use members declared further down
        # its class, and .cpp bodies need headers' class layouts.
        self.pending.append((fn, j + 1, body_end - 1, param_types))
        self.sm.functions.append(fn)
        if inits:
            self._init_span(qname, cls_qname, name_line, inits, j)
        return body_end

    def _init_span(self, qname: str, cls: str, line: int, start: int,
                   end: int) -> None:
        """An initializer outside any function body. Its lambdas are
        checked by coro-ref-escape; the detached Function holding them
        stays out of the call graph."""
        if not any(tok.text == "[" for tok in self.toks[start:end]):
            return
        holder = Function(qname=qname, name=qname.rsplit("::", 1)[-1],
                          cls=cls, file=self.rel, line=line)
        self.pending.append((holder, start, end, {}))
        self.sm.initializers.append(holder)

    def _skip_ctor_inits(self, i: int, end: int) -> int:
        """Skip a constructor initializer list; returns index of body '{'."""
        while i < end:
            txt = self.toks[i].text
            if txt == "(":
                i = match_forward(self.toks, i, "(", ")")
            elif txt == "{":
                # `member{...}` initializer or the body itself: the body is
                # preceded by ',' handling — a '{' directly after an
                # identifier is an initializer; after ')' or at list end
                # it is the body. Disambiguate: initializers are always
                # followed by ',' or the body '{'.
                close = match_forward(self.toks, i, "{", "}")
                if close < end and self.toks[close].text == ",":
                    i = close + 1
                    continue
                prev = self.toks[i - 1].text if i > 0 else ""
                if prev in (")", ",", ":") or self.toks[i - 1].kind != "id":
                    return i
                # identifier{...} initializer ending the list: body follows
                i = close
            elif txt == "<":
                i = skip_template_args(self.toks, i)
            elif txt == ";":
                return i
            else:
                i += 1
        return end

    def _param_types(self, i: int, end: int) -> dict[str, str]:
        """Best-effort `name -> type` map for a parameter list span."""
        out: dict[str, str] = {}
        depth = 0
        cur: list[Tok] = []

        def flush() -> None:
            if len(cur) >= 2 and cur[-1].kind == "id" and \
                    cur[-1].text not in KEYWORDS:
                out[cur[-1].text] = _type_of(cur[:-1])
            cur.clear()

        while i < end:
            t = self.toks[i]
            if t.text == "<":
                close = skip_template_args(self.toks, i)
                cur.extend(self.toks[i:close])
                i = close
                continue
            if t.text in ("(", "[", "{"):
                i = match_forward(self.toks, i,
                                  t.text, {"(": ")", "[": "]", "{": "}"}[t.text])
                continue
            if t.text == "," and depth == 0:
                flush()
            elif t.text == "=":
                # default argument: drop the remainder of this parameter
                while i < end and self.toks[i].text != ",":
                    if self.toks[i].text == "<":
                        i = skip_template_args(self.toks, i) - 1
                    i += 1
                flush()
            else:
                cur.append(t)
            i += 1
        flush()
        return out


class BodyAnalyzer:
    """Walks one function body span, attributing evidence to `fn`.

    Nested lambda bodies are analyzed for their own coroutine-ness and
    capture escapes; their allocation sites and calls are attributed to the
    enclosing function (the dominant idiom here is the immediately-invoked
    or locally-called helper lambda)."""

    def __init__(self, fp: FileParser, fn: Function,
                 param_types: dict[str, str]):
        self.fp = fp
        self.toks = fp.toks
        self.fn = fn
        self.local_types: dict[str, str] = dict(param_types)

    # Main walk. `top` is False inside nested lambda bodies (co_* tokens
    # then belong to the lambda, not the function).
    def analyze(self, i: int, end: int, top: bool,
                lam: LambdaSite | None = None) -> None:
        stmt_start = True
        while i < end:
            t = self.toks[i]
            txt = t.text
            if txt in ("co_await", "co_return", "co_yield"):
                if top:
                    self.fn.is_coroutine = True
                elif lam is not None:
                    lam.is_coroutine = True
                if txt == "co_return":
                    self._record_return(i + 1, end)
                i += 1
                stmt_start = False
                continue
            if txt == "return":
                self._record_return(i + 1, end)
                i += 1
                stmt_start = False
                continue
            if txt in ("struct", "class", "union", "enum"):
                i = self._skip_local_type(i, end)
                stmt_start = True
                continue
            if txt in ("static", "thread_local") and stmt_start:
                i = self._record_static_local(i, end)
                stmt_start = True
                continue
            if txt == "for" and i + 1 < end and \
                    self.toks[i + 1].text == "(":
                i = self._analyze_for(i, end, top, lam)
                stmt_start = True
                continue
            if txt == "new":
                i = self._record_new(i, end)
                stmt_start = False
                continue
            if txt == "[" and i > 0 and \
                    (self.toks[i - 1].text in LAMBDA_PRECEDERS or
                     self.toks[i - 1].kind == "punct" and
                     self.toks[i - 1].text in ("&", "*")):
                nxt = self._try_lambda(i, end)
                if nxt is not None:
                    i = nxt
                    stmt_start = False
                    continue
            if t.kind == "id":
                self.fn.idents.add(txt)
                if txt == "function" and i >= 2 and \
                        self.toks[i - 1].text == "::" and \
                        self.toks[i - 2].text == "std" and \
                        i + 1 < end and self.toks[i + 1].text == "<":
                    self.fn.allocs.append(AllocSite(
                        kind="std_function", line=t.line,
                        detail="std::function object in body"))
                elif i + 1 < end and self.toks[i + 1].text == "(" and \
                        txt not in KEYWORDS:
                    self._record_call(i, end)
                elif i + 1 < end and self.toks[i + 1].text == "<" and \
                        txt not in KEYWORDS and not self._is_type_ident(txt):
                    # foo<Args...>(...): call with explicit template args
                    close = skip_template_args(self.toks, i + 1)
                    if close < end and self.toks[close].text == "(":
                        self._record_call(i, end)
                        i = close
                        stmt_start = False
                        continue
                elif i + 1 < end and self.toks[i + 1].text == "<" and \
                        txt not in KEYWORDS and self._is_type_ident(txt):
                    # local declaration with template type: record its type
                    close = skip_template_args(self.toks, i + 1)
                    if close < end and self.toks[close].kind == "id":
                        tname = self.toks[close].text
                        self.local_types[tname] = \
                            _type_of(self.toks[i:close])
                        self._maybe_container_local(tname, t.line,
                                                    self.toks[i:close])
                    i = close
                    stmt_start = False
                    continue
            stmt_start = txt in (";", "{", "}", ":") or \
                (txt == ")" and stmt_start)
            i += 1

    # -- helpers -------------------------------------------------------------

    def _is_type_ident(self, txt: str) -> bool:
        return txt[0].isupper() or txt in CONTAINER_TEMPLATES or txt in (
            "vector", "deque", "list", "array", "span", "optional",
            "unique_ptr", "shared_ptr", "pair", "tuple", "basic_string")

    def _maybe_container_local(self, name: str, line: int,
                               type_toks: list[Tok]) -> None:
        type_str = _type_of(type_toks)
        tmpl = _container_template(type_str)
        if tmpl:
            key = _key_of(type_str)
            self.fp.sm.containers.append(ContainerDecl(
                name=name, file=self.fp.rel, line=line, type_str=type_str,
                template=tmpl, key_type=key, ptr_key=_is_ptr_key(key),
                owner=self.fn.qname))

    def _record_return(self, i: int, end: int) -> None:
        depth = 0
        while i < end:
            t = self.toks[i]
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == ";" and depth <= 0:
                return
            elif t.kind == "id" and t.text not in KEYWORDS:
                self.fn.returned_idents.add(t.text)
            i += 1

    def _skip_local_type(self, i: int, end: int) -> int:
        j = i
        while j < end and self.toks[j].text not in ("{", ";", ":", "("):
            j += 1
        if j < end and self.toks[j].text == ":":      # base clause or label
            while j < end and self.toks[j].text not in ("{", ";"):
                j += 1
        if j < end and self.toks[j].text == "{":
            j = match_forward(self.toks, j, "{", "}")
        return self.fp._skip_past(j, end, ";") if j < end else end

    def _record_static_local(self, i: int, end: int) -> int:
        specs = {self.toks[i].text}
        j = i + 1
        name = ""
        line = self.toks[i].line
        type_toks: list[Tok] = []
        while j < end and self.toks[j].text not in (";", "=", "{", "("):
            t = self.toks[j]
            if t.text in SPECIFIERS:
                specs.add(t.text)
            elif t.text == "<":
                close = skip_template_args(self.toks, j)
                type_toks.extend(self.toks[j:close])
                j = close
                continue
            elif t.kind == "id" and t.text not in KEYWORDS:
                if name:
                    type_toks.append(Tok("id", name, line))
                name = t.text
                line = t.line
            else:
                type_toks.append(t)
            j += 1
        if name:
            is_const = "const" in specs or "constexpr" in specs
            kind = "thread_local" if "thread_local" in specs \
                else "local_static"
            sv = StaticVar(name=name,
                           qname=self.fn.qname + "::" + name,
                           file=self.fp.rel, line=line, kind=kind,
                           type_str=_type_of(type_toks), is_const=is_const,
                           owner_function=self.fn.qname)
            self.fn.static_locals.append(sv)
            self.fp.sm.statics.append(sv)
            self.local_types[name] = _type_of(type_toks)
        return self.fp._skip_past(j, end, ";")

    def _record_new(self, i: int, end: int) -> int:
        prev = self.toks[i - 1].text if i > 0 else ""
        nxt = self.toks[i + 1].text if i + 1 < end else ""
        line = self.toks[i].line
        if prev == "operator":
            # `::operator new(size)` raw-allocation call — an alloc site.
            # (`static void* operator new(...)` *definitions* come through
            # _parse_declaration, not here.)
            if nxt == "(":
                self.fn.allocs.append(AllocSite(
                    kind="new", line=line, detail="operator new call"))
            return i + 1
        if nxt == "(":
            # Placement new: constructs, does not allocate.
            return match_forward(self.toks, i + 1, "(", ")")
        self.fn.allocs.append(AllocSite(kind="new", line=line,
                                        detail="new expression"))
        return i + 1

    def _receiver_chain(self, i: int) -> str:
        """Walk back from the callee identifier over `a.b->c` chains."""
        parts: list[str] = []
        j = i - 1
        while j > 0:
            sep = self.toks[j].text
            if sep in (".", "->"):
                if self.toks[j - 1].kind == "id":
                    parts.append(self.toks[j - 1].text)
                    j -= 2
                    continue
                if self.toks[j - 1].text == "]":
                    # x[...]->f(): an element of container x. Typed as
                    # unknown for growth checks; the call graph resolves
                    # the element class from x's declared type.
                    k, depth = j - 1, 0
                    while k > 0:
                        t = self.toks[k].text
                        depth += 1 if t == "]" else -1 if t == "[" else 0
                        if depth == 0:
                            break
                        k -= 1
                    if k > 0 and self.toks[k - 1].kind == "id":
                        parts.append(self.toks[k - 1].text + "[]")
                        break
                if self.toks[j - 1].text in (")", "]"):
                    parts.append("()")
                    break
            break
        return ".".join(reversed(parts))

    def _receiver_type(self, receiver: str) -> str:
        """Resolved type of a receiver chain like 'f.rx' ('' if unknown)."""
        parts = [p for p in receiver.split(".") if p and p != "()"]
        if not parts:
            return ""
        ty = self._resolve_type(parts[0])
        if len(parts) > 1 and ty:
            leaf = self._resolve_member_through(ty, parts[1:])
            return leaf
        return ty

    def _record_call(self, i: int, end: int) -> None:
        name = self.toks[i].text
        line = self.toks[i].line
        prev = self.toks[i - 1].text if i > 0 else ""
        qualifier = ""
        receiver = ""
        if prev == "::" and i >= 2 and self.toks[i - 2].kind == "id":
            qualifier = self.toks[i - 2].text
            if qualifier == "std":
                qualifier = "std"
        elif prev in (".", "->"):
            receiver = self._receiver_chain(i)
        if name in ALLOC_CALLS and qualifier in ("", "std"):
            self.fn.allocs.append(AllocSite(kind=ALLOC_CALLS[name],
                                            line=line, detail=name))
            return
        if name in GROWTH_METHODS and receiver:
            ty = self._receiver_type(receiver)
            is_container = any(h in ty for h in CONTAINER_TYPE_HINTS)
            if is_container or (not ty and name in STRONG_GROWTH):
                self.fn.allocs.append(AllocSite(
                    kind="growth:" + name, line=line,
                    detail=receiver + "." + name + "(...)"))
            # fall through: it is also a call site (for sink analysis)
        self.fn.calls.append(CallSite(name=name, line=line,
                                      qualifier=qualifier,
                                      receiver=receiver))

    # -- for loops -----------------------------------------------------------

    def _analyze_for(self, i: int, end: int, top: bool,
                     lam: LambdaSite | None) -> int:
        lparen = i + 1
        rparen = match_forward(self.toks, lparen, "(", ")") - 1
        # Range-for: a ':' at paren depth 1 that is not '::' and not inside
        # a nested bracket.
        colon = -1
        depth = 0
        j = lparen + 1
        semis = 0
        while j < rparen:
            t = self.toks[j].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ";" and depth == 0:
                semis += 1
            elif t == ":" and depth == 0 and colon == -1:
                colon = j
            j += 1
        iterable_toks: list[Tok] = []
        if colon != -1 and semis == 0:
            iterable_toks = self.toks[colon + 1:rparen]
        else:
            # Classic loop: catch `it = X.begin()` iterator sweeps.
            for k in range(lparen + 1, rparen - 2):
                if self.toks[k].text in ("begin", "cbegin") and \
                        self.toks[k + 1].text == "(" and \
                        self.toks[k - 1].text in (".", "->"):
                    iterable_toks = [self.toks[k - 2]]
                    break
        body_start = rparen + 1
        if body_start < end and self.toks[body_start].text == "{":
            body_end = match_forward(self.toks, body_start, "{", "}")
            inner = (body_start + 1, body_end - 1)
        else:
            body_end = self.fp._skip_past(body_start, end, ";")
            inner = (body_start, body_end)

        if iterable_toks:
            expr = "".join(t.text for t in iterable_toks)
            loop = LoopSite(line=self.toks[i].line, iterable=expr)
            self._type_loop(loop, iterable_toks)
            self._scan_loop_body(loop, inner[0], inner[1])
            self.fn.loops.append(loop)
        # The body still needs the ordinary walk (nested loops, calls...).
        self.analyze(inner[0], inner[1], top, lam)
        return body_end

    def _type_loop(self, loop: LoopSite, toks: list[Tok]) -> None:
        expr_ids = [t.text for t in toks if t.kind == "id"]
        text = "".join(t.text for t in toks)
        if "unordered_" in text:
            loop.unordered = True
            loop.iterable_type = text
            return
        if not expr_ids:
            return
        base = expr_ids[0]
        ty = self._resolve_type(base)
        # `a.b` chains: try the leaf member through the base's class.
        if len(expr_ids) > 1:
            leaf_ty = self._resolve_member_through(ty, expr_ids[1:])
            if leaf_ty:
                ty = leaf_ty
        if ty:
            loop.iterable_type = ty
            loop.unordered = "unordered_" in ty

    def _resolve_type(self, name: str) -> str:
        if name in self.local_types:
            return self.local_types[name]
        cls = self.fp.sm.classes.get(self.fn.cls)
        seen = set()
        while cls is not None and cls.qname not in seen:
            seen.add(cls.qname)
            if name in cls.member_types:
                return cls.member_types[name]
            nxt = None
            for b in cls.bases:
                for cq, ci in self.fp.sm.classes.items():
                    if cq == b or cq.endswith("::" + b):
                        nxt = ci
                        break
                if nxt:
                    break
            cls = nxt
        return ""

    def _resolve_member_through(self, base_type: str,
                                members: list[str]) -> str:
        ty = base_type
        for m in members:
            found = ""
            for cq, ci in self.fp.sm.classes.items():
                short = cq.rsplit("::", 1)[-1]
                if short and short in ty and m in ci.member_types:
                    found = ci.member_types[m]
                    break
            if not found:
                return ""
            ty = found
        return ty

    def _scan_loop_body(self, loop: LoopSite, i: int, end: int) -> None:
        depth = 0
        while i < end:
            t = self.toks[i]
            txt = t.text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif txt == "break" and depth == 0:
                loop.has_break = True
            elif txt == "return" or txt == "co_return":
                loop.has_return = True
            elif t.kind == "id" and txt not in KEYWORDS:
                nxt = self.toks[i + 1].text if i + 1 < end else ""
                prev = self.toks[i - 1].text if i > 0 else ""
                wrote = False
                if nxt in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
                           "^=", "<<=", ">>=", "++", "--"):
                    wrote = True
                elif prev in ("++", "--"):
                    wrote = True
                if wrote:
                    # walk back over `a.b->c[i]` to the base identifier
                    base = txt
                    j = i
                    while j >= 2 and self.toks[j - 1].text in (".", "->") \
                            and self.toks[j - 2].kind == "id":
                        base = self.toks[j - 2].text
                        j -= 2
                    if self._is_nonlocal(base):
                        loop.writes_nonlocal.append(base)
                    else:
                        loop.wrote_locals.add(base)
                if nxt == "(" and txt in MUTATING_SINKS and prev in (
                        ".", "->"):
                    recv = self._receiver_chain(i)
                    base = recv.split(".")[0] if recv else ""
                    if base and self._is_nonlocal(base):
                        loop.sink_calls.append(recv + "." + txt)
            i += 1

    def _is_nonlocal(self, base: str) -> bool:
        if base == "this":
            return True
        if base in self.local_types:
            return False
        # Codebase convention: members end in '_'; also consult the class.
        if base.endswith("_"):
            return True
        cls = self.fp.sm.classes.get(self.fn.cls)
        if cls and base in cls.member_types:
            return True
        return any(sv.name == base and not sv.is_const
                   for sv in self.fp.sm.statics)

    # -- lambdas -------------------------------------------------------------

    def _try_lambda(self, i: int, end: int) -> int | None:
        close = match_forward(self.toks, i, "[", "]")
        if close > end:
            return None
        captures = self.toks[i + 1:close - 1]
        j = close
        if j < end and self.toks[j].text == "<":       # template lambda
            j = skip_template_args(self.toks, j)
        if j < end and self.toks[j].text == "(":
            j = match_forward(self.toks, j, "(", ")")
        # specifiers / trailing return type up to the body
        guard = 0
        while j < end and self.toks[j].text != "{":
            txt = self.toks[j].text
            if txt in (";", ")", "]", ",", "=", "}"):
                return None                            # subscript, not lambda
            if txt == "<":
                j = skip_template_args(self.toks, j)
                continue
            if txt == "(":
                j = match_forward(self.toks, j, "(", ")")
                continue
            j += 1
            guard += 1
            if guard > 32:
                return None
        if j >= end:
            return None
        body_end = match_forward(self.toks, j, "{", "}")
        cap_text = " ".join(t.text for t in captures)
        by_ref = any(t.text == "&" for t in captures)
        lam = LambdaSite(line=self.toks[i].line, captures=cap_text,
                         by_ref=by_ref)
        # Analyze the body: attributes co_* to the lambda, allocations and
        # calls to the enclosing function.
        self.analyze(j + 1, body_end - 1, top=False, lam=lam)
        lam.usage = self._lambda_usage(i, body_end, end)
        self.fn.lambdas.append(lam)
        return body_end

    def _lambda_usage(self, intro: int, body_end: int, end: int) -> str:
        """Judged from the tokens before the introducer only, so an
        immediately invoked lambda is classified by what its call feeds."""
        prev = self.toks[intro - 1].text if intro > 0 else ""
        prev2 = self.toks[intro - 2].text if intro > 1 else ""
        if prev == "co_await":
            return "awaited_in_place"
        if prev == "(" and intro >= 2:
            callee = self.toks[intro - 2]
            if callee.kind == "id":
                if callee.text == "run":
                    return "run_arg"
                return "arg:" + callee.text
        if prev == ",":
            # argument of some call: find the callee by walking back to the
            # unmatched '(' and taking the identifier before it.
            depth = 0
            j = intro - 1
            while j > 0:
                t = self.toks[j].text
                if t in (")", "]", "}"):
                    depth += 1
                elif t in ("(", "[", "{"):
                    depth -= 1
                    if depth < 0:
                        callee = self.toks[j - 1]
                        if callee.kind == "id":
                            if callee.text == "run":
                                return "run_arg"
                            return "arg:" + callee.text
                        break
                j -= 1
            return "unknown"
        if prev == "=" and prev2 and self.toks[intro - 2].kind == "id":
            target = self.toks[intro - 2].text
            if intro >= 3 and self.toks[intro - 3].text == "auto":
                if body_end < end and self.toks[body_end].text == "(":
                    # `auto t = [&]{...}();` binds the task, not the
                    # lambda: the closure its frame reads dies at the ';'.
                    return "unknown"
                # Same-frame only if every later use of the name in the
                # enclosing body is co_awaited, and there is one.
                uses = [k for k in range(body_end, end)
                        if self.toks[k].text == target]
                if uses and all(self.toks[k - 1].text == "co_await"
                                for k in uses):
                    return "named_awaited:" + target
                return "named:" + target
            return "assigned:" + target
        if prev in ("return", "co_return"):
            return "returned"
        return "unknown"


def parse_files(paths: list[tuple[Path, str]]) -> SourceModel:
    """Parse (path, display-relative-name) pairs into one SourceModel.

    Two passes: headers first so class layouts (member types, bases) are
    known when .cpp bodies resolve loop iterables and receivers."""
    sm = SourceModel()
    ordered = sorted(paths, key=lambda pr: (pr[0].suffix not in
                                            (".hpp", ".h"), pr[1]))
    parsers = []
    for path, rel in ordered:
        fp = FileParser(path, rel, sm)
        parsers.append(fp)
        sm.files.append(rel)
    for fp in parsers:
        fp.parse()
    for fp in parsers:
        for fn, start, end, params in fp.pending:
            BodyAnalyzer(fp, fn, params).analyze(start, end, top=True)
    return sm
