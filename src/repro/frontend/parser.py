"""Recursive-descent parser for the C subset.

The grammar covers the language the analyzer handles:

* top level: struct definitions, typedefs, global variable declarations,
  function prototypes and definitions;
* statements: compound, ``if``/``else``, ``while``, ``do``, ``for``,
  ``switch`` (with fallthrough), ``break``, ``continue``, ``return``,
  ``goto``/labels, expression statements, local declarations;
* expressions: the full C operator precedence ladder minus bit-field,
  compound-literal and designated-initializer forms.

Type names are the builtin specifiers, ``struct TAG`` and names introduced
by ``typedef`` — the classic lexer-feedback problem is solved by tracking
typedef names in the parser state.

Panic-mode error recovery (ISSUE 6): constructed with a
:class:`DiagnosticBag`, the parser records every :class:`ParseError` as a
positioned diagnostic and keeps going instead of raising on the first one.

* **Top level** — a malformed declaration synchronizes forward to the next
  ``;`` or ``}`` at brace depth zero (or the next token that can start a
  declaration) and parsing resumes there.
* **Function bodies** — dropping individual statements from a body would
  be *unsound* (the analysis would reason about a program that skips side
  effects), so an unparseable body **quarantines the whole function**: the
  braces are skipped in balance, and the function is kept as a
  ``FuncDef`` with ``quarantined=True`` and an empty body. IR lowering
  replaces it with an explicit havoc stub (globals ⊤, return ⊤) so every
  call boundary stays sound, and a note is recorded in the bag.

Without a bag the historical fail-fast behaviour is unchanged.
"""

from __future__ import annotations

from repro.frontend import cast as A
from repro.runtime.worker import beat
from repro.frontend.ctypes import (
    INT,
    VOID,
    ArrayType,
    CType,
    FuncType,
    IntType,
    PointerType,
    StructLayout,
    StructType,
)
from repro.frontend.errors import DiagnosticBag, ParseError, Position
from repro.frontend.lexer import _LINEMARKER, Token, TokenKind, tokenize


def _source_line_map(
    lines: list[str], filename: str
) -> dict[tuple[str, int], int]:
    """Map ``(filename, line)`` positions to raw indices into ``lines``.

    The preprocessor splices ``#include`` bodies bracketed by GNU
    linemarkers, so a token's reported position no longer equals its
    physical index in the text being parsed; this walks the lines once,
    tracking the markers, so caret diagnostics can recover the text —
    including lines that physically live in an included header.
    """
    mapping: dict[tuple[str, int], int] = {}
    cur_file, cur_line = filename, 1
    for idx, text in enumerate(lines):
        m = _LINEMARKER.match(text)
        if m is not None:
            cur_line = int(m.group(1))
            if m.group(2) is not None:
                cur_file = m.group(2)
            continue
        mapping.setdefault((cur_file, cur_line), idx)
        cur_line += 1
    return mapping

_TYPE_KEYWORDS = frozenset(
    {
        "int",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "float",
        "double",
        "void",
        "struct",
        "union",
        "enum",
        "const",
        "volatile",
    }
)

_STORAGE_KEYWORDS = frozenset({"static", "extern", "register", "auto"})

_ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)

#: combined statement/expression nesting depth bound — deep enough for any
#: realistic C, shallow enough that fuzzer-made ``((((...`` towers raise a
#: clean :class:`ParseError` instead of blowing the Python stack
_MAX_NEST = 64


class Parser:
    """Parses a token stream into a :class:`TranslationUnit`.

    With ``diagnostics`` set, parse errors are recorded and recovered from
    (panic-mode synchronization at top level, per-function quarantine for
    bodies); without it they raise :class:`ParseError` as before.
    ``source_lines`` (the raw input split on newlines) enables caret
    rendering on every diagnostic.
    """

    def __init__(
        self,
        tokens: list[Token],
        diagnostics: DiagnosticBag | None = None,
        source_lines: list[str] | None = None,
        filename: str = "<input>",
    ) -> None:
        self._toks = tokens
        self._i = 0
        self._typedefs: dict[str, CType] = {}
        self._structs: dict[str, StructLayout] = {}
        self._enum_consts: dict[str, int] = {}
        self._diags = diagnostics
        self._source_lines = source_lines
        self._filename = filename
        self._depth = 0
        self._line_map: dict[tuple[str, int], int] | None = None

    # -- token stream helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        j = min(self._i + offset, len(self._toks) - 1)
        return self._toks[j]

    def _next(self) -> Token:
        tok = self._toks[self._i]
        if tok.kind is not TokenKind.EOF:
            self._i += 1
        return tok

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok.text == text and tok.kind in (TokenKind.PUNCT, TokenKind.KEYWORD)

    def _accept(self, text: str) -> Token | None:
        if self._at(text):
            return self._next()
        return None

    def _line_text(self, pos: Position) -> str | None:
        if self._source_lines is None:
            return None
        if self._line_map is None:
            self._line_map = _source_line_map(self._source_lines, self._filename)
        idx = self._line_map.get((pos.filename, pos.line))
        return self._source_lines[idx] if idx is not None else None

    def _error(self, message: str, pos: Position) -> ParseError:
        """Build (not raise) a caret-capable :class:`ParseError`."""
        return ParseError(message, pos, self._line_text(pos))

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if not self._at(text):
            raise self._error(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokenKind.IDENT:
            raise self._error(
                f"expected identifier, found {tok.text!r}", tok.pos
            )
        return self._next()

    def _pos(self) -> Position:
        return self._peek().pos

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > _MAX_NEST:
            raise self._error("construct nested too deeply", self._pos())

    def _leave(self) -> None:
        self._depth -= 1

    # -- type detection -------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind is TokenKind.KEYWORD and tok.text in (
            _TYPE_KEYWORDS | _STORAGE_KEYWORDS | {"typedef"}
        ):
            return True
        return tok.kind is TokenKind.IDENT and tok.text in self._typedefs

    # -- top level --------------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(pos=self._pos())
        unit.structs = self._structs
        while self._peek().kind is not TokenKind.EOF:
            beat()
            start = self._i
            self._depth = 0
            if self._diags is None:
                self._parse_external_decl(unit)
                continue
            try:
                self._parse_external_decl(unit)
            except ParseError as exc:
                self._diags.record_exception(exc, "parse")
                self._synchronize(start)
        return unit

    def _synchronize(self, start: int) -> None:
        """Panic-mode recovery: skip to the next plausible declaration.

        Consumes forward from the error point, tracking brace depth, until
        just past a ``;`` or ``}`` at depth zero, or just before a token
        that can start a top-level declaration — whichever comes first. At
        least one token is always consumed (relative to ``start``) so
        recovery makes progress.
        """
        depth = 0
        if self._i == start:
            tok = self._next()  # forced progress — but honour what we ate
            if tok.is_punct("{"):
                depth = 1
            elif tok.is_punct("}") or tok.is_punct(";"):
                return  # already a synchronization point
        while self._peek().kind is not TokenKind.EOF:
            tok = self._peek()
            if depth == 0 and self._i > start + 1 and self._starts_type():
                return
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                if depth == 0:
                    self._next()
                    return
                depth -= 1
            elif tok.is_punct(";") and depth == 0:
                self._next()
                return
            self._next()

    def _skip_balanced_braces(self) -> None:
        """Consume a ``{``-opened block, balancing nested braces (for
        quarantined function bodies). Stops at EOF if unbalanced."""
        self._expect("{")
        depth = 1
        while depth and self._peek().kind is not TokenKind.EOF:
            tok = self._next()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1

    def _parse_external_decl(self, unit: A.TranslationUnit) -> None:
        pos = self._pos()
        if self._accept(";"):
            return
        is_typedef = bool(self._accept("typedef"))
        storage = self._parse_storage()
        base = self._parse_type_specifier()
        if self._accept(";"):
            # bare "struct S { ... };" or "enum {...};" definition
            return
        if is_typedef:
            while True:
                name, ctype = self._parse_declarator(base)
                self._typedefs[name] = ctype
                if not self._accept(","):
                    break
            self._expect(";")
            return
        first = True
        while True:
            name, ctype = self._parse_declarator(base)
            if first and isinstance(ctype, FuncType) and self._at("{"):
                # Capture params before the body: local declarators inside
                # the body reuse the declarator machinery and would clobber
                # the pending-parameter slot.
                params = self._pending_params or []
                body_start = self._i
                quarantined = False
                if self._diags is None:
                    body = self._parse_compound()
                else:
                    try:
                        body = self._parse_compound()
                    except ParseError as exc:
                        self._diags.record_exception(exc, "parse")
                        # Soundness: a body with statements dropped would
                        # analyze a different program — quarantine instead.
                        self._i = body_start
                        self._skip_balanced_braces()
                        body = A.Compound([], pos=pos)
                        quarantined = True
                        self._diags.note(
                            f"function {name!r} quarantined: body failed to "
                            "parse; calls are modelled by a havoc stub "
                            "(globals and return value assumed unknown)",
                            pos,
                        )
                unit.functions.append(
                    A.FuncDef(
                        name=name,
                        ret_type=ctype.ret,
                        params=params,
                        body=body,
                        variadic=ctype.variadic,
                        is_static="static" in storage,
                        quarantined=quarantined,
                        pos=pos,
                    )
                )
                return
            if isinstance(ctype, FuncType):
                unit.prototypes.append(
                    A.FuncDecl(
                        name=name,
                        ret_type=ctype.ret,
                        params=self._pending_params or [],
                        variadic=ctype.variadic,
                        pos=pos,
                    )
                )
            else:
                init = None
                if self._accept("="):
                    init = self._parse_initializer()
                unit.globals.append(
                    A.VarDecl(
                        name=name,
                        ctype=ctype,
                        init=init,
                        is_static="static" in storage,
                        pos=pos,
                    )
                )
            first = False
            if not self._accept(","):
                break
        self._expect(";")

    def _parse_storage(self) -> set[str]:
        storage: set[str] = set()
        while self._peek().text in _STORAGE_KEYWORDS:
            storage.add(self._next().text)
        return storage

    # -- type specifiers -----------------------------------------------------

    def _parse_type_specifier(self) -> CType:
        """Parse the base type specifier (before declarators)."""
        tok = self._peek()
        # qualifiers are skipped
        while tok.text in ("const", "volatile") or tok.text in _STORAGE_KEYWORDS:
            self._next()
            tok = self._peek()
        if tok.text == "struct" or tok.text == "union":
            return self._parse_struct_specifier()
        if tok.text == "enum":
            return self._parse_enum_specifier()
        if tok.kind is TokenKind.IDENT and tok.text in self._typedefs:
            self._next()
            return self._typedefs[tok.text]
        names: list[str] = []
        while self._peek().text in (
            "int",
            "char",
            "long",
            "short",
            "unsigned",
            "signed",
            "float",
            "double",
            "void",
            "const",
            "volatile",
        ):
            names.append(self._next().text)
        names = [n for n in names if n not in ("const", "volatile")]
        if not names:
            raise self._error(
                f"expected type specifier, found {tok.text!r}", tok.pos
            )
        if names == ["void"]:
            return VOID
        return IntType(" ".join(names))

    def _parse_struct_specifier(self) -> CType:
        self._next()  # struct / union
        tag_tok = self._peek()
        if tag_tok.kind is TokenKind.IDENT:
            self._next()
            tag = tag_tok.text
        else:
            tag = f"__anon_{tag_tok.pos.line}_{tag_tok.pos.column}"
        if self._accept("{"):
            layout = StructLayout(tag)
            self._structs[tag] = layout
            while not self._accept("}"):
                fbase = self._parse_type_specifier()
                while True:
                    fname, ftype = self._parse_declarator(fbase)
                    layout.fields.append((fname, ftype))
                    if not self._accept(","):
                        break
                self._expect(";")
        return StructType(tag)

    def _parse_enum_specifier(self) -> CType:
        self._next()  # enum
        if self._peek().kind is TokenKind.IDENT:
            self._next()
        if self._accept("{"):
            next_val = 0
            while not self._accept("}"):
                name = self._expect_ident().text
                if self._accept("="):
                    next_val = self._parse_const_int()
                self._enum_consts[name] = next_val
                next_val += 1
                if not self._accept(","):
                    self._expect("}")
                    break
        return INT

    def _parse_const_int(self) -> int:
        """Parse a constant expression and fold it to an int."""
        expr = self._parse_conditional()
        value = fold_const(expr, self._enum_consts)
        if value is None:
            raise self._error("expected integer constant expression", expr.pos)
        return value

    # -- declarators -----------------------------------------------------------

    def _parse_declarator(self, base: CType) -> tuple[str, CType]:
        """Parse ``*`` prefixes, a name, and array/function suffixes.

        Function declarators stash their parameter list in
        ``self._pending_params`` (used by the caller for function defs).
        """
        self._pending_params: list[A.ParamDecl] | None = None
        ty = base
        while self._accept("*"):
            while self._peek().text in ("const", "volatile"):
                self._next()
            ty = PointerType(ty)
        if self._accept("("):
            # Parenthesized declarator, e.g. function pointers: (*fp)(...)
            name, inner = self._parse_declarator(INT)  # placeholder base
            self._expect(")")
            suffixed = self._parse_declarator_suffix(ty)
            # Substitute: the inner declarator wraps the suffixed type.
            return name, _substitute_base(inner, suffixed)
        name_tok = self._expect_ident()
        ty = self._parse_declarator_suffix(ty)
        return name_tok.text, ty

    def _parse_declarator_suffix(self, ty: CType) -> CType:
        if self._at("("):
            self._next()
            params: list[A.ParamDecl] = []
            variadic = False
            if not self._at(")"):
                while True:
                    if self._accept("..."):
                        variadic = True
                        break
                    ppos = self._pos()
                    pbase = self._parse_type_specifier()
                    if isinstance(pbase, (IntType,)) or not self._at(")"):
                        pass
                    if self._peek().kind is TokenKind.IDENT or self._at("*") or self._at("("):
                        pname, ptype = self._parse_declarator(pbase)
                    else:
                        pname, ptype = "", pbase
                    if not (isinstance(ptype, type(VOID)) and pname == ""):
                        params.append(A.ParamDecl(name=pname, ctype=ptype, pos=ppos))
                    if not self._accept(","):
                        break
            self._expect(")")
            params = [p for p in params if not isinstance(p.ctype, type(VOID))]
            self._pending_params = params
            return FuncType(ty, tuple(p.ctype for p in params), variadic)
        dims: list[int | None] = []
        while self._accept("["):
            if self._at("]"):
                dims.append(None)
            else:
                dims.append(self._parse_const_int())
            self._expect("]")
        for length in reversed(dims):
            ty = ArrayType(ty, length)
        return ty

    def _parse_initializer(self) -> A.Expr:
        if self._at("{"):
            pos = self._pos()
            self._next()
            parts: list[A.Expr] = []
            while not self._accept("}"):
                parts.append(self._parse_initializer())
                if not self._accept(","):
                    self._expect("}")
                    break
            return A.CommaExpr(parts, pos=pos)
        return self._parse_assignment()

    # -- statements ---------------------------------------------------------------

    def _parse_compound(self) -> A.Compound:
        pos = self._pos()
        self._expect("{")
        body: list[A.Stmt] = []
        while not self._accept("}"):
            body.append(self._parse_statement())
        return A.Compound(body, pos=pos)

    def _parse_statement(self) -> A.Stmt:
        self._enter()
        try:
            return self._parse_statement_inner()
        finally:
            self._leave()

    def _parse_statement_inner(self) -> A.Stmt:
        pos = self._pos()
        tok = self._peek()
        if self._at("{"):
            return self._parse_compound()
        if self._accept(";"):
            return A.EmptyStmt(pos=pos)
        if tok.kind is TokenKind.KEYWORD:
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do,
                "for": self._parse_for,
                "switch": self._parse_switch,
                "return": self._parse_return,
                "goto": self._parse_goto,
            }.get(tok.text)
            if handler is not None:
                return handler()
            if tok.text == "break":
                self._next()
                self._expect(";")
                return A.Break(pos=pos)
            if tok.text == "continue":
                self._next()
                self._expect(";")
                return A.Continue(pos=pos)
        if (
            tok.kind is TokenKind.IDENT
            and self._peek(1).is_punct(":")
            and not self._peek(2).is_punct(":")
        ):
            self._next()
            self._next()
            return A.Labeled(tok.text, self._parse_statement(), pos=pos)
        if self._starts_type():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect(";")
        return A.ExprStmt(expr, pos=pos)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        pos = self._pos()
        storage = self._parse_storage()
        base = self._parse_type_specifier()
        decls: list[A.VarDecl] = []
        if not self._at(";"):
            while True:
                name, ctype = self._parse_declarator(base)
                init = None
                if self._accept("="):
                    init = self._parse_initializer()
                decls.append(
                    A.VarDecl(
                        name=name,
                        ctype=ctype,
                        init=init,
                        is_static="static" in storage,
                        pos=pos,
                    )
                )
                if not self._accept(","):
                    break
        self._expect(";")
        return A.DeclStmt(decls, pos=pos)

    def _parse_if(self) -> A.Stmt:
        pos = self._pos()
        self._expect("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("else"):
            otherwise = self._parse_statement()
        return A.If(cond, then, otherwise, pos=pos)

    def _parse_while(self) -> A.Stmt:
        pos = self._pos()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        body = self._parse_statement()
        return A.While(cond, body, pos=pos)

    def _parse_do(self) -> A.Stmt:
        pos = self._pos()
        self._expect("do")
        body = self._parse_statement()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        self._expect(";")
        return A.DoWhile(body, cond, pos=pos)

    def _parse_for(self) -> A.Stmt:
        pos = self._pos()
        self._expect("for")
        self._expect("(")
        init: A.Stmt | None = None
        if not self._at(";"):
            if self._starts_type():
                init = self._parse_decl_stmt()
            else:
                init = A.ExprStmt(self._parse_expr(), pos=pos)
                self._expect(";")
        else:
            self._next()
        cond = None if self._at(";") else self._parse_expr()
        self._expect(";")
        step = None if self._at(")") else self._parse_expr()
        self._expect(")")
        body = self._parse_statement()
        return A.For(init, cond, step, body, pos=pos)

    def _parse_switch(self) -> A.Stmt:
        pos = self._pos()
        self._expect("switch")
        self._expect("(")
        scrutinee = self._parse_expr()
        self._expect(")")
        self._expect("{")
        cases: list[A.SwitchCase] = []
        current: A.SwitchCase | None = None
        while not self._accept("}"):
            if self._at("case"):
                cpos = self._pos()
                self._next()
                value = self._parse_conditional()
                self._expect(":")
                current = A.SwitchCase(value, [], pos=cpos)
                cases.append(current)
            elif self._at("default"):
                cpos = self._pos()
                self._next()
                self._expect(":")
                current = A.SwitchCase(None, [], pos=cpos)
                cases.append(current)
            else:
                if current is None:
                    raise self._error("statement before first case label", self._pos())
                current.body.append(self._parse_statement())
        return A.Switch(scrutinee, cases, pos=pos)

    def _parse_return(self) -> A.Stmt:
        pos = self._pos()
        self._expect("return")
        value = None if self._at(";") else self._parse_expr()
        self._expect(";")
        return A.Return(value, pos=pos)

    def _parse_goto(self) -> A.Stmt:
        pos = self._pos()
        self._expect("goto")
        label = self._expect_ident().text
        self._expect(";")
        return A.Goto(label, pos=pos)

    # -- expressions (precedence ladder) --------------------------------------

    def _parse_expr(self) -> A.Expr:
        pos = self._pos()
        first = self._parse_assignment()
        if not self._at(","):
            return first
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_assignment())
        return A.CommaExpr(parts, pos=pos)

    def _parse_assignment(self) -> A.Expr:
        pos = self._pos()
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind is TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._next()
            right = self._parse_assignment()
            return A.Assign(tok.text, left, right, pos=pos)
        return left

    def _parse_conditional(self) -> A.Expr:
        pos = self._pos()
        cond = self._parse_binary(0)
        if self._accept("?"):
            then = self._parse_expr()
            self._expect(":")
            otherwise = self._parse_conditional()
            return A.Conditional(cond, then, otherwise, pos=pos)
        return cond

    _BINARY_LEVELS: list[tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast()
        ops = self._BINARY_LEVELS[level]
        pos = self._pos()
        left = self._parse_binary(level + 1)
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.PUNCT and tok.text in ops:
                # Don't treat '&' before a type keyword oddly; binary ops are
                # only valid where an operand follows, which parsing handles.
                self._next()
                right = self._parse_binary(level + 1)
                left = A.BinOp(tok.text, left, right, pos=pos)
            else:
                return left

    def _parse_cast(self) -> A.Expr:
        # Every structurally recursive expression path (parenthesized
        # subexpressions, casts, unary chains) re-enters here, so this is
        # the one place the expression nesting guard has to live.
        self._enter()
        try:
            pos = self._pos()
            if self._at("(") and self._starts_type(1):
                self._next()
                ty = self._parse_abstract_type()
                self._expect(")")
                operand = self._parse_cast()
                return A.Cast(ty, operand, pos=pos)
            return self._parse_unary()
        finally:
            self._leave()

    def _parse_abstract_type(self) -> CType:
        base = self._parse_type_specifier()
        ty = base
        while self._accept("*"):
            ty = PointerType(ty)
        while self._accept("["):
            length = None if self._at("]") else self._parse_const_int()
            self._expect("]")
            ty = ArrayType(ty, length)
        return ty

    def _parse_unary(self) -> A.Expr:
        pos = self._pos()
        tok = self._peek()
        if tok.text in ("++", "--") and tok.kind is TokenKind.PUNCT:
            self._next()
            operand = self._parse_unary()
            return A.IncDec(tok.text, operand, prefix=True, pos=pos)
        if tok.kind is TokenKind.PUNCT and tok.text in ("-", "+", "!", "~", "&", "*"):
            self._next()
            operand = self._parse_cast()
            return A.UnOp(tok.text, operand, pos=pos)
        if tok.is_keyword("sizeof"):
            self._next()
            if self._at("(") and self._starts_type(1):
                self._next()
                ty = self._parse_abstract_type()
                self._expect(")")
                return A.SizeOf(of_type=ty, pos=pos)
            operand = self._parse_unary()
            return A.SizeOf(of_expr=operand, pos=pos)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            pos = self._pos()
            if self._accept("("):
                args: list[A.Expr] = []
                if not self._at(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept(","):
                            break
                self._expect(")")
                expr = A.Call(expr, args, pos=pos)
            elif self._accept("["):
                index = self._parse_expr()
                self._expect("]")
                expr = A.Index(expr, index, pos=pos)
            elif self._accept("."):
                name = self._expect_ident().text
                expr = A.FieldAccess(expr, name, arrow=False, pos=pos)
            elif self._accept("->"):
                name = self._expect_ident().text
                expr = A.FieldAccess(expr, name, arrow=True, pos=pos)
            elif self._at("++") or self._at("--"):
                op = self._next().text
                expr = A.IncDec(op, expr, prefix=False, pos=pos)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        pos = tok.pos
        if tok.kind is TokenKind.NUMBER:
            self._next()
            if isinstance(tok.value, float):
                return A.FloatLit(tok.value, pos=pos)
            return A.IntLit(int(tok.value), pos=pos)
        if tok.kind is TokenKind.CHAR:
            self._next()
            return A.IntLit(int(tok.value), pos=pos)
        if tok.kind is TokenKind.STRING:
            self._next()
            parts = [str(tok.value)]
            while self._peek().kind is TokenKind.STRING:
                parts.append(str(self._next().value))
            return A.StrLit("".join(parts), pos=pos)
        if tok.kind is TokenKind.IDENT:
            self._next()
            if tok.text in self._enum_consts:
                return A.IntLit(self._enum_consts[tok.text], pos=pos)
            return A.Ident(tok.text, pos=pos)
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise self._error(f"expected expression, found {tok.text!r}", pos)


def _substitute_base(inner: CType, new_base: CType) -> CType:
    """Replace the placeholder base (INT) at the core of ``inner`` with
    ``new_base`` — used for parenthesized declarators like ``(*fp)(int)``."""
    if inner == INT:
        return new_base
    if isinstance(inner, PointerType):
        return PointerType(_substitute_base(inner.pointee, new_base))
    if isinstance(inner, ArrayType):
        return ArrayType(_substitute_base(inner.element, new_base), inner.length)
    if isinstance(inner, FuncType):
        return FuncType(
            _substitute_base(inner.ret, new_base), inner.params, inner.variadic
        )
    return inner


def fold_const(expr: A.Expr, env: dict[str, int] | None = None) -> int | None:
    """Best-effort constant folding for array sizes and case labels."""
    env = env or {}
    if isinstance(expr, A.IntLit):
        return expr.value
    if isinstance(expr, A.Ident):
        return env.get(expr.name)
    if isinstance(expr, A.UnOp):
        v = fold_const(expr.operand, env)
        if v is None:
            return None
        return {"-": -v, "+": v, "!": int(not v), "~": ~v}.get(expr.op)
    if isinstance(expr, A.SizeOf):
        return 1  # abstract unit size; the analysis is unit-agnostic
    if isinstance(expr, A.BinOp):
        lhs = fold_const(expr.left, env)
        rhs = fold_const(expr.right, env)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lambda: lhs + rhs,
                "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "/": lambda: lhs // rhs if rhs else None,
                "%": lambda: lhs % rhs if rhs else None,
                "<<": lambda: lhs << rhs,
                ">>": lambda: lhs >> rhs,
                "&": lambda: lhs & rhs,
                "|": lambda: lhs | rhs,
                "^": lambda: lhs ^ rhs,
            }[expr.op]()
        except KeyError:
            return None
    return None


def parse(
    source: str,
    filename: str = "<input>",
    diagnostics: DiagnosticBag | None = None,
) -> A.TranslationUnit:
    """Parse C-subset ``source`` into a :class:`TranslationUnit`.

    With ``diagnostics``, both the lexer and the parser run in panic-mode
    recovery: all errors land in the bag (with caret snippets) and the
    returned unit contains every function that could be salvaged —
    unparseable bodies appear as quarantined ``FuncDef`` stubs.
    """
    tokens = tokenize(source, filename, diagnostics)
    parser = Parser(tokens, diagnostics, source.split("\n"), filename)
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        # Defence in depth behind the _MAX_NEST guard: whatever overflows
        # the interpreter stack becomes an ordinary frontend error.
        exc = ParseError("input nested too deeply to parse", Position(1, 1, filename))
        if diagnostics is None:
            raise exc from None
        diagnostics.record_exception(exc, "parse")
        return A.TranslationUnit(pos=Position(1, 1, filename))
