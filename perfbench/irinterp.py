"""An independent interpreter for scalar integer IR.

The benchmark checks the program's answers with this module instead of
with the program's own evaluator, so a fault shared by the pipeline and
its verifier cannot hide.  It parses the textual IR itself and covers
the scalar integer subset that window candidates mostly use:

* ``iN`` binops ``add sub mul udiv sdiv urem srem shl lshr ashr and or
  xor`` with ``nuw``/``nsw``/``exact``/``disjoint``;
* ``icmp`` (all ten predicates, ``samesign``), ``select``;
* ``zext``/``sext``/``trunc`` (``nneg`` on ``zext``);
* ``llvm.umin/umax/smin/smax/abs`` intrinsics.

Anything else raises :class:`Unsupported`; callers count such functions
as unchecked.  Values are unsigned bit patterns; :data:`POISON` marks
poison and :class:`UndefinedBehavior` is raised for immediate UB
(division by zero, ``sdiv`` overflow).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class Unsupported(Exception):
    """The function uses IR outside the interpreter's subset."""


class UndefinedBehavior(Exception):
    """Executing the function on this input is immediate UB."""


class _Poison:
    def __repr__(self) -> str:
        return "poison"


POISON = _Poison()

_BINOPS = {"add", "sub", "mul", "udiv", "sdiv", "urem", "srem", "shl",
           "lshr", "ashr", "and", "or", "xor"}
_CASTS = {"zext", "sext", "trunc"}
_PREDICATES = {"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge",
               "slt", "sle"}
_FLAGS = {"nuw", "nsw", "exact", "disjoint", "nneg", "samesign"}
_INTRINSIC = re.compile(r"^llvm\.(umin|umax|smin|smax|abs)\.i(\d+)$")

_DEFINE = re.compile(r"^define\s+(\S+)\s+@[\w.$-]+\s*\((.*)\)\s*[^{]*\{$")
_ASSIGN = re.compile(r"^%([\w.$-]+)\s*=\s*(.*)$")
_CALL = re.compile(r"^(?:tail\s+)?call\s+(\S+)\s+@([\w.$-]+)\s*\((.*)\)$")


def _width(type_text: str) -> int:
    if not re.fullmatch(r"i\d+", type_text):
        raise Unsupported(f"type {type_text}")
    width = int(type_text[1:])
    if not 1 <= width <= 128:
        raise Unsupported(f"type {type_text}")
    return width


def _signed(value: int, width: int) -> int:
    return value - (1 << width) if value >> (width - 1) else value


@dataclass
class Operand:
    kind: str            # "reg" or "const"
    value: object        # register name or unsigned int


@dataclass
class Inst:
    name: str
    op: str
    width: int           # result width
    operands: List[Operand]
    flags: frozenset = frozenset()
    predicate: str = ""
    operand_width: int = 0


@dataclass
class IRFunction:
    """A parsed single-block scalar integer function."""

    return_width: int
    arguments: List[Tuple[str, int]]
    body: List[Inst] = field(default_factory=list)
    returned: Optional[Operand] = None

    def run(self, args: Sequence[int]) -> object:
        """Return the result (int or :data:`POISON`); raise
        :class:`UndefinedBehavior` on immediate UB."""
        if len(args) != len(self.arguments):
            raise ValueError("argument count mismatch")
        env: Dict[str, object] = {}
        for (name, width), value in zip(self.arguments, args):
            env[name] = value & ((1 << width) - 1)
        for inst in self.body:
            env[inst.name] = _execute(inst, env)
        return _value(self.returned, env)


def _value(operand: Operand, env: Dict[str, object]) -> object:
    if operand.kind == "const":
        return operand.value
    try:
        return env[operand.value]
    except KeyError:
        raise Unsupported(f"use of undefined value %{operand.value}")


def _parse_operand(text: str, width: int) -> Operand:
    text = text.strip()
    if text.startswith("%"):
        return Operand("reg", text[1:])
    if text == "true":
        return Operand("const", 1)
    if text == "false":
        return Operand("const", 0)
    if text == "poison":
        return Operand("const", POISON)
    if re.fullmatch(r"-?\d+", text):
        return Operand("const", int(text) & ((1 << width) - 1))
    raise Unsupported(f"operand {text}")


def _split_typed(text: str) -> Tuple[int, str]:
    """``"i32 %x"`` -> (32, "%x")."""
    parts = text.strip().split(None, 1)
    if len(parts) != 2:
        raise Unsupported(f"operand {text}")
    return _width(parts[0]), parts[1]


def _parse_inst(name: str, text: str) -> Inst:
    words = text.replace(",", " , ").split()
    opcode = words[0]
    rest = words[1:]
    flags = set()
    while rest and rest[0] in _FLAGS:
        flags.add(rest.pop(0))
    if opcode in _BINOPS:
        width = _width(rest[0])
        lhs, rhs = " ".join(rest[1:]).split(",")
        return Inst(name, opcode, width,
                    [_parse_operand(lhs, width), _parse_operand(rhs, width)],
                    frozenset(flags))
    if opcode == "icmp":
        predicate = rest[0]
        if predicate not in _PREDICATES:
            raise Unsupported(f"icmp {predicate}")
        width = _width(rest[1])
        lhs, rhs = " ".join(rest[2:]).split(",")
        return Inst(name, opcode, 1,
                    [_parse_operand(lhs, width), _parse_operand(rhs, width)],
                    frozenset(flags), predicate=predicate,
                    operand_width=width)
    if opcode == "select":
        parts = [part.strip() for part in
                 " ".join(rest).replace(" , ", ",").split(",")]
        if len(parts) != 3:
            raise Unsupported(text)
        cond_width, cond = _split_typed(parts[0])
        width, true_value = _split_typed(parts[1])
        _, false_value = _split_typed(parts[2])
        if cond_width != 1:
            raise Unsupported("vector select")
        return Inst(name, opcode, width,
                    [_parse_operand(cond, 1),
                     _parse_operand(true_value, width),
                     _parse_operand(false_value, width)])
    if opcode in _CASTS:
        body = " ".join(rest)
        source, _, target = body.partition(" to ")
        source_width, value = _split_typed(source)
        return Inst(name, opcode, _width(target.strip()),
                    [_parse_operand(value, source_width)],
                    frozenset(flags), operand_width=source_width)
    if opcode in ("call", "tail"):
        match = _CALL.match(text.strip())
        if match is None:
            raise Unsupported(text)
        width = _width(match.group(1))
        intrinsic = _INTRINSIC.match(match.group(2))
        if intrinsic is None or int(intrinsic.group(2)) != width:
            raise Unsupported(f"call @{match.group(2)}")
        args = [_split_typed(arg) for arg in match.group(3).split(",")]
        operands = [_parse_operand(value, arg_width)
                    for arg_width, value in args]
        kind = intrinsic.group(1)
        if len(operands) != 2 or (kind == "abs" and args[1][0] != 1):
            raise Unsupported(f"call @{match.group(2)}")
        return Inst(name, kind, width, operands)
    raise Unsupported(f"opcode {opcode}")


def parse(text: str) -> IRFunction:
    """Parse one ``define`` with a single basic block."""
    lines = [line.split(";", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    header = _DEFINE.match(lines[0]) if lines else None
    if header is None:
        raise Unsupported("expected one define")
    return_width = _width(header.group(1))
    arguments = []
    if header.group(2).strip():
        for arg in header.group(2).split(","):
            parts = arg.split()
            if len(parts) < 2 or not parts[-1].startswith("%"):
                raise Unsupported(f"argument {arg}")
            arguments.append((parts[-1][1:], _width(parts[0])))
    function = IRFunction(return_width, arguments)
    for line in lines[1:]:
        if line == "}":
            break
        if line.endswith(":"):
            if function.body:
                raise Unsupported("more than one basic block")
            continue
        assign = _ASSIGN.match(line)
        if assign is not None:
            function.body.append(_parse_inst(assign.group(1),
                                             assign.group(2)))
            continue
        if line.startswith("ret "):
            width, value = _split_typed(line[4:])
            if width != return_width:
                raise Unsupported("return type mismatch")
            function.returned = _parse_operand(value, width)
            continue
        raise Unsupported(f"statement {line}")
    if function.returned is None:
        raise Unsupported("no ret")
    return function


def _execute(inst: Inst, env: Dict[str, object]) -> object:
    values = [_value(operand, env) for operand in inst.operands]
    op = inst.op
    if op == "select":
        cond, true_value, false_value = values
        if cond is POISON:
            return POISON
        return true_value if cond else false_value
    if any(value is POISON for value in values):
        return POISON
    width = inst.width
    mask = (1 << width) - 1
    if op in _BINOPS:
        return _binop(op, values[0], values[1], width, inst.flags)
    if op == "icmp":
        return _icmp(inst.predicate, values[0], values[1],
                     inst.operand_width, inst.flags)
    if op == "zext":
        if "nneg" in inst.flags and values[0] >> (inst.operand_width - 1):
            return POISON
        return values[0]
    if op == "sext":
        return _signed(values[0], inst.operand_width) & mask
    if op == "trunc":
        return values[0] & mask
    a, b = values
    if op == "umin":
        return min(a, b)
    if op == "umax":
        return max(a, b)
    if op == "smin":
        return a if _signed(a, width) <= _signed(b, width) else b
    if op == "smax":
        return a if _signed(a, width) >= _signed(b, width) else b
    # abs: the i1 operand says whether INT_MIN is poison.
    if a == 1 << (width - 1):
        return POISON if b else a
    return (-_signed(a, width)) & mask if a >> (width - 1) else a


def _binop(op: str, a: int, b: int, width: int, flags) -> object:
    mask = (1 << width) - 1
    sa, sb = _signed(a, width), _signed(b, width)
    smin, smax = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if op in ("add", "sub", "mul"):
        if op == "add":
            unsigned, signed = a + b, sa + sb
        elif op == "sub":
            unsigned, signed = a - b, sa - sb
        else:
            unsigned, signed = a * b, sa * sb
        if "nuw" in flags and not 0 <= unsigned <= mask:
            return POISON
        if "nsw" in flags and not smin <= signed <= smax:
            return POISON
        return unsigned & mask
    if op in ("udiv", "urem"):
        if b == 0:
            raise UndefinedBehavior("division by zero")
        if op == "udiv":
            if "exact" in flags and a % b:
                return POISON
            return a // b
        return a % b
    if op in ("sdiv", "srem"):
        if b == 0:
            raise UndefinedBehavior("division by zero")
        if sa == smin and sb == -1:
            raise UndefinedBehavior("signed division overflow")
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        remainder = sa - quotient * sb
        if op == "sdiv":
            if "exact" in flags and remainder:
                return POISON
            return quotient & mask
        return remainder & mask
    if op in ("shl", "lshr", "ashr"):
        if b >= width:
            return POISON
        if op == "shl":
            result = (a << b) & mask
            if "nuw" in flags and result >> b != a:
                return POISON
            if "nsw" in flags and _signed(result, width) >> b != sa:
                return POISON
            return result
        if "exact" in flags and a & ((1 << b) - 1):
            return POISON
        if op == "lshr":
            return a >> b
        return (sa >> b) & mask
    if op == "and":
        return a & b
    if op == "xor":
        return a ^ b
    if "disjoint" in flags and a & b:
        return POISON
    return a | b


def _icmp(predicate: str, a: int, b: int, width: int, flags) -> object:
    sa, sb = _signed(a, width), _signed(b, width)
    if "samesign" in flags and (sa < 0) != (sb < 0):
        return POISON
    result = {
        "eq": a == b, "ne": a != b,
        "ugt": a > b, "uge": a >= b, "ult": a < b, "ule": a <= b,
        "sgt": sa > sb, "sge": sa >= sb, "slt": sa < sb, "sle": sa <= sb,
    }[predicate]
    return int(result)


def outcome(function: IRFunction, args: Sequence[int]) -> object:
    """The function's result, with UB as the string ``"UB"``."""
    try:
        return function.run(args)
    except UndefinedBehavior:
        return "UB"


def edge_values(width: int) -> List[int]:
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    return sorted({value & mask for value in
                   (0, 1, 2, mask, mask - 1, top, top - 1, top + 1)})


def seeded_inputs(function: IRFunction, seed: int,
                  count: int = 192) -> List[List[int]]:
    """Edge-value combinations first, then uniform random inputs."""
    rng = random.Random(seed)
    widths = [width for _, width in function.arguments]
    inputs: List[List[int]] = []
    for index in range(8 if widths else 1):
        inputs.append([edge_values(width)[(index + position)
                                          % len(edge_values(width))]
                       for position, width in enumerate(widths)])
    while len(inputs) < count:
        inputs.append([rng.getrandbits(width) for width in widths])
    return inputs


def agrees(source: IRFunction, target: IRFunction,
           inputs: Sequence[Sequence[int]]) -> Tuple[int, Optional[list]]:
    """Check that ``target`` refines ``source`` on ``inputs``.

    Inputs on which the source is UB or returns poison are undefined
    and skipped.  Returns (inputs checked, first disagreeing input or
    None)."""
    checked = 0
    for args in inputs:
        expected = outcome(source, args)
        if expected == "UB" or expected is POISON:
            continue
        checked += 1
        if outcome(target, args) != expected:
            return checked, list(args)
    return checked, None


def differ(source: IRFunction, target: IRFunction,
           args: Sequence[int]) -> bool:
    """Does ``args`` show that ``target`` fails to refine ``source``?"""
    expected = outcome(source, args)
    if expected == "UB":
        return False
    actual = outcome(target, args)
    if expected is POISON:
        return False
    return actual != expected
