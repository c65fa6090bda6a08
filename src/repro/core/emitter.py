"""Source emission utilities for the code generator.

:class:`Emitter` accumulates indented Python lines; :class:`GenContext`
carries everything template instantiation needs: the optimization level,
whether probe instrumentation is woven in, and the registry of
``struct`` unpacker constants shared across templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CodegenError
from repro.storage.types import DataType

#: Generator optimization levels (the gcc -O0 / -O2 analogue).
OPT_O0 = "O0"
OPT_O2 = "O2"

INDENT = "    "


class Emitter:
    """An indentation-aware line buffer."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._level = 0

    def emit(self, text: str = "") -> None:
        """Append one line (or several, newline separated)."""
        if not text:
            self._lines.append("")
            return
        prefix = INDENT * self._level
        if "\n" not in text:
            self._lines.append(prefix + text)
            return
        for line in text.split("\n"):
            self._lines.append(prefix + line if line else "")

    def block(self, header: str) -> "_Block":
        """Emit ``header`` and indent the body one level."""
        self.emit(header)
        return _Block(self)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""


class _Block:
    """The indented body of :meth:`Emitter.block`: a plain context
    manager, cheaper to enter than a generator-based one."""

    __slots__ = ("_em",)

    def __init__(self, em: Emitter):
        self._em = em

    def __enter__(self) -> None:
        self._em._level += 1

    def __exit__(self, *exc_info) -> None:
        self._em._level -= 1


@dataclass
class GenContext:
    """Shared state of one code-generation run."""

    opt_level: str = OPT_O2
    traced: bool = False
    #: struct format → module-level unpacker constant name.
    unpackers: dict[str, str] = field(default_factory=dict)
    #: module-level row ``Struct`` constant name → its format.
    row_structs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.opt_level not in (OPT_O0, OPT_O2):
            raise CodegenError(f"unknown optimization level {self.opt_level!r}")

    @property
    def optimized(self) -> bool:
        return self.opt_level == OPT_O2

    # -- unpacker registry -----------------------------------------------------
    def unpacker(self, struct_char: str) -> str:
        """Name of the module-level unpack_from bound to this format."""
        name = self.unpackers.get(struct_char)
        if name is None:
            # "?" (BOOL) is no identifier character.
            name = f"_u_{struct_char.replace('?', 'bool')}"
            self.unpackers[struct_char] = name
        return name

    def field_decode(
        self, dtype: DataType, data_var: str, offset_expr: str
    ) -> str:
        """Source reading one field straight out of a page buffer.

        This is the Python analogue of the paper's pointer cast: a
        precompiled ``struct.Struct.unpack_from`` applied at a constant
        offset, with no generic accessor in between.
        """
        unpack = self.unpacker(dtype.struct_char)
        raw = f"{unpack}({data_var}, {offset_expr})[0]"
        if dtype.is_string:
            return f"{raw}.rstrip(_SP).decode()"
        return raw

    def row_struct(self, name: str, fmt: str) -> str:
        """Register a module-level ``Struct`` decoding whole tuples."""
        self.row_structs[name] = fmt
        return name

    def preamble_lines(self) -> list[str]:
        """Module-level constant definitions for registered decoders."""
        lines = []
        for struct_char, name in sorted(self.unpackers.items()):
            lines.append(
                f'{name} = _struct.Struct("<{struct_char}").unpack_from'
            )
        for name, fmt in self.row_structs.items():
            lines.append(f'{name} = _struct.Struct("{fmt}")')
        return lines
