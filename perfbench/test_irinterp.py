"""Hand-computed checks of the benchmark's independent IR interpreter."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from irinterp import (  # noqa: E402
    POISON,
    Unsupported,
    agrees,
    differ,
    outcome,
    parse,
)


def run(body: str, args, ret="i8", params="i8 %a, i8 %b"):
    text = f"define {ret} @f({params}) {{\n{body}\n}}\n"
    return outcome(parse(text), args)


@pytest.mark.parametrize("op,a,b,expected", [
    ("add", 200, 100, 44),          # 300 mod 256
    ("sub", 3, 5, 254),             # -2
    ("mul", 16, 17, 16),            # 272 mod 256
    ("udiv", 250, 7, 35),
    ("sdiv", 0xF9, 2, 0xFD),        # -7 / 2 = -3 (truncates)
    ("urem", 250, 7, 5),
    ("srem", 0xF9, 2, 0xFF),        # -7 % 2 = -1
    ("shl", 0x81, 1, 0x02),
    ("lshr", 0x80, 7, 1),
    ("ashr", 0x80, 7, 0xFF),
    ("and", 0xF0, 0x3C, 0x30),
    ("or", 0xF0, 0x0F, 0xFF),
    ("xor", 0xFF, 0x0F, 0xF0),
])
def test_binops(op, a, b, expected):
    assert run(f"  %r = {op} i8 %a, %b\n  ret i8 %r", [a, b]) == expected


@pytest.mark.parametrize("inst,a,b", [
    ("add nuw", 200, 100),          # unsigned wrap
    ("add nsw", 100, 100),          # 200 > 127
    ("sub nuw", 3, 5),
    ("mul nsw", 16, 16),
    ("shl nuw", 0x81, 1),           # shifts out a one
    ("shl nsw", 0x40, 1),           # sign flips
    ("lshr exact", 3, 1),           # shifts out a one
    ("udiv exact", 7, 2),
    ("or disjoint", 3, 1),
    ("shl", 1, 8),                  # shift amount >= width
])
def test_flags_make_poison(inst, a, b):
    assert run(f"  %r = {inst} i8 %a, %b\n  ret i8 %r", [a, b]) is POISON


def test_division_by_zero_and_overflow_are_ub():
    assert run("  %r = udiv i8 %a, %b\n  ret i8 %r", [1, 0]) == "UB"
    assert run("  %r = sdiv i8 %a, %b\n  ret i8 %r", [0x80, 0xFF]) == "UB"


@pytest.mark.parametrize("pred,a,b,expected", [
    ("eq", 5, 5, 1), ("ne", 5, 5, 0),
    ("ugt", 0x80, 1, 1), ("sgt", 0x80, 1, 0),
    ("ult", 1, 0x80, 1), ("slt", 0x80, 1, 1),
    ("uge", 7, 7, 1), ("sle", 0xFF, 0, 1),
])
def test_icmp(pred, a, b, expected):
    body = f"  %c = icmp {pred} i8 %a, %b\n  ret i1 %c"
    assert run(body, [a, b], ret="i1") == expected


def test_select_casts_and_intrinsics():
    body = ("  %c = icmp ult i8 %a, %b\n"
            "  %r = select i1 %c, i8 %a, i8 %b\n  ret i8 %r")
    assert run(body, [9, 4]) == 4
    assert run("  %r = sext i8 %a to i16\n  ret i16 %r", [0x80, 0],
               ret="i16") == 0xFF80
    assert run("  %r = zext i8 %a to i16\n  ret i16 %r", [0x80, 0],
               ret="i16") == 0x80
    assert run("  %r = zext nneg i8 %a to i16\n  ret i16 %r", [0x80, 0],
               ret="i16") is POISON
    assert run("  %r = trunc i8 %a to i4\n  ret i4 %r", [0xAB, 0],
               ret="i4") == 0xB
    for name, expected in (("umin", 1), ("umax", 0x80),
                           ("smin", 0x80), ("smax", 1)):
        body = (f"  %r = call i8 @llvm.{name}.i8(i8 %a, i8 %b)\n"
                "  ret i8 %r")
        assert run(body, [0x80, 1]) == expected
    abs_body = "  %r = call i8 @llvm.abs.i8(i8 %a, i1 {})\n  ret i8 %r"
    assert run(abs_body.format("false"), [0xFB, 0]) == 5
    assert run(abs_body.format("false"), [0x80, 0]) == 0x80
    assert run(abs_body.format("true"), [0x80, 0]) is POISON


def test_refinement_helpers():
    source = parse("define i8 @src(i8 %x) {\n  %s = lshr i8 %x, 7\n"
                   "  %r = and i8 %s, 1\n  ret i8 %r\n}\n")
    good = parse("define i8 @tgt(i8 %x) {\n  %r = lshr i8 %x, 7\n"
                 "  ret i8 %r\n}\n")
    bad = parse("define i8 @tgt(i8 %x) {\n  %r = ashr i8 %x, 7\n"
                "  ret i8 %r\n}\n")
    inputs = [[value] for value in range(256)]
    assert agrees(source, good, inputs) == (256, None)
    assert agrees(source, bad, inputs) == (129, [0x80])
    assert differ(source, bad, [0x80]) and not differ(source, bad, [1])
    # Poison in the source leaves the target free.
    flagged = parse("define i8 @src(i8 %x) {\n  %r = add nuw i8 %x, 1\n"
                    "  ret i8 %r\n}\n")
    wrap = parse("define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 1\n"
                 "  ret i8 %r\n}\n")
    assert not differ(flagged, wrap, [255])
    assert differ(wrap, flagged, [255])


def test_unsupported_ir_is_reported():
    for text in ("define float @f(float %a) {\n  ret float %a\n}\n",
                 "define i8 @f(ptr %p) {\n  %v = load i8, ptr %p\n"
                 "  ret i8 %v\n}\n",
                 "define i8 @f(i8 %a) {\n  %v = freeze i8 %a\n"
                 "  ret i8 %v\n}\n"):
        with pytest.raises(Unsupported):
            parse(text)
