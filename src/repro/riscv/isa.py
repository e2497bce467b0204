"""Instruction-set tables for the RV64IMFD subset plus an RVV 1.0 slice.

Each entry describes how a mnemonic maps onto an encoding format and its
fixed fields.  The assembler, encoder, decoder and emulator all consume
these tables, so the four agree by construction.

Formats (operand syntax -> fields):

=======  =============================  ==========================
format   assembly                       fields
=======  =============================  ==========================
R        ``op rd, rs1, rs2``            funct7 funct3
I        ``op rd, rs1, imm``            funct3
I-shift  ``op rd, rs1, shamt``          funct6 funct3 (RV64: 6-bit)
LOAD     ``op rd, imm(rs1)``            funct3
STORE    ``op rs2, imm(rs1)``           funct3
B        ``op rs1, rs2, label``         funct3
U        ``op rd, imm``                 (lui / auipc)
J        ``op rd, label``               (jal)
R-fp     ``op fd, fs1, fs2``            funct7 funct3(rm)
R4       ``op fd, fs1, fs2, fs3``       fmt (fused multiply-add)
FLOAD /  ``op fd, imm(rs1)`` etc.       funct3 (width)
FSTORE
VSETVLI  ``vsetvli rd, rs1, vtypei``
VLOAD /  ``op vd, (rs1)``               width mop
VSTORE
VARITH   ``op vd, vs2, vs1`` (OPFVV)    funct6
VARITH-F ``op vd, vs2, fs1`` (OPFVF)    funct6
SYS      ``ecall`` / ``ebreak``
=======  =============================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

OPCODE_LOAD = 0x03
OPCODE_LOAD_FP = 0x07
OPCODE_OP_IMM = 0x13
OPCODE_AUIPC = 0x17
OPCODE_OP_IMM_32 = 0x1B
OPCODE_STORE = 0x23
OPCODE_STORE_FP = 0x27
OPCODE_OP = 0x33
OPCODE_LUI = 0x37
OPCODE_OP_32 = 0x3B
OPCODE_MADD = 0x43
OPCODE_MSUB = 0x47
OPCODE_NMSUB = 0x4B
OPCODE_NMADD = 0x4F
OPCODE_OP_FP = 0x53
OPCODE_OP_V = 0x57
OPCODE_BRANCH = 0x63
OPCODE_JALR = 0x67
OPCODE_JAL = 0x6F
OPCODE_SYSTEM = 0x73


@dataclass(frozen=True)
class InsnSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: str
    opcode: int
    funct3: Optional[int] = None
    funct7: Optional[int] = None
    funct6: Optional[int] = None   # RV64 shifts / vector funct6
    rs2_field: Optional[int] = None  # fixed rs2 (fcvt variants)
    fp_fmt: Optional[int] = None   # 0=S, 1=D for OP-FP / R4
    width: Optional[int] = None    # vector element width code


def _r(m, f3, f7):
    return InsnSpec(m, "R", OPCODE_OP, funct3=f3, funct7=f7)


def _rw(m, f3, f7):
    return InsnSpec(m, "R", OPCODE_OP_32, funct3=f3, funct7=f7)


def _i(m, f3, opcode=OPCODE_OP_IMM):
    return InsnSpec(m, "I", opcode, funct3=f3)


def _sh(m, f3, f6, opcode=OPCODE_OP_IMM):
    return InsnSpec(m, "I-shift", opcode, funct3=f3, funct6=f6)


def _load(m, f3):
    return InsnSpec(m, "LOAD", OPCODE_LOAD, funct3=f3)


def _store(m, f3):
    return InsnSpec(m, "STORE", OPCODE_STORE, funct3=f3)


def _b(m, f3):
    return InsnSpec(m, "B", OPCODE_BRANCH, funct3=f3)


def _fp(m, f7, fp_fmt, f3=None, rs2_field=None):
    return InsnSpec(m, "R-fp", OPCODE_OP_FP, funct3=f3, funct7=f7, fp_fmt=fp_fmt, rs2_field=rs2_field)


SPECS: Dict[str, InsnSpec] = {}


def _add(spec: InsnSpec) -> None:
    SPECS[spec.mnemonic] = spec


# ---- RV64I ------------------------------------------------------------------
_add(InsnSpec("lui", "U", OPCODE_LUI))
_add(InsnSpec("auipc", "U", OPCODE_AUIPC))
_add(InsnSpec("jal", "J", OPCODE_JAL))
_add(InsnSpec("jalr", "I", OPCODE_JALR, funct3=0))
for _m, _f3 in [("beq", 0), ("bne", 1), ("blt", 4), ("bge", 5), ("bltu", 6), ("bgeu", 7)]:
    _add(_b(_m, _f3))
for _m, _f3 in [("lb", 0), ("lh", 1), ("lw", 2), ("ld", 3), ("lbu", 4), ("lhu", 5), ("lwu", 6)]:
    _add(_load(_m, _f3))
for _m, _f3 in [("sb", 0), ("sh", 1), ("sw", 2), ("sd", 3)]:
    _add(_store(_m, _f3))
for _m, _f3 in [("addi", 0), ("slti", 2), ("sltiu", 3), ("xori", 4), ("ori", 6), ("andi", 7)]:
    _add(_i(_m, _f3))
_add(_sh("slli", 1, 0x00))
_add(_sh("srli", 5, 0x00))
_add(_sh("srai", 5, 0x10))
for _m, _f3, _f7 in [
    ("add", 0, 0x00), ("sub", 0, 0x20), ("sll", 1, 0x00), ("slt", 2, 0x00),
    ("sltu", 3, 0x00), ("xor", 4, 0x00), ("srl", 5, 0x00), ("sra", 5, 0x20),
    ("or", 6, 0x00), ("and", 7, 0x00),
]:
    _add(_r(_m, _f3, _f7))
_add(_i("addiw", 0, OPCODE_OP_IMM_32))
_add(InsnSpec("slliw", "I-shift", OPCODE_OP_IMM_32, funct3=1, funct6=0x00))
_add(InsnSpec("srliw", "I-shift", OPCODE_OP_IMM_32, funct3=5, funct6=0x00))
_add(InsnSpec("sraiw", "I-shift", OPCODE_OP_IMM_32, funct3=5, funct6=0x10))
for _m, _f3, _f7 in [("addw", 0, 0x00), ("subw", 0, 0x20), ("sllw", 1, 0x00), ("srlw", 5, 0x00), ("sraw", 5, 0x20)]:
    _add(_rw(_m, _f3, _f7))
_add(InsnSpec("ecall", "SYS", OPCODE_SYSTEM, funct3=0, funct7=0x00))
_add(InsnSpec("ebreak", "SYS", OPCODE_SYSTEM, funct3=0, funct7=0x00, rs2_field=1))

# ---- RV64M ------------------------------------------------------------------
for _m, _f3 in [("mul", 0), ("mulh", 1), ("mulhsu", 2), ("mulhu", 3), ("div", 4), ("divu", 5), ("rem", 6), ("remu", 7)]:
    _add(_r(_m, _f3, 0x01))
for _m, _f3 in [("mulw", 0), ("divw", 4), ("divuw", 5), ("remw", 6), ("remuw", 7)]:
    _add(InsnSpec(_m, "R", OPCODE_OP_32, funct3=_f3, funct7=0x01))

# ---- F / D ------------------------------------------------------------------
_add(InsnSpec("flw", "FLOAD", OPCODE_LOAD_FP, funct3=2))
_add(InsnSpec("fld", "FLOAD", OPCODE_LOAD_FP, funct3=3))
_add(InsnSpec("fsw", "FSTORE", OPCODE_STORE_FP, funct3=2))
_add(InsnSpec("fsd", "FSTORE", OPCODE_STORE_FP, funct3=3))
for _suffix, _fmt in [(".s", 0), (".d", 1)]:
    _add(_fp(f"fadd{_suffix}", 0x00, _fmt))
    _add(_fp(f"fsub{_suffix}", 0x04, _fmt))
    _add(_fp(f"fmul{_suffix}", 0x08, _fmt))
    _add(_fp(f"fdiv{_suffix}", 0x0C, _fmt))
    _add(_fp(f"fsqrt{_suffix}", 0x2C, _fmt, rs2_field=0))
    _add(_fp(f"fsgnj{_suffix}", 0x10, _fmt, f3=0))
    _add(_fp(f"fsgnjn{_suffix}", 0x10, _fmt, f3=1))
    _add(_fp(f"fsgnjx{_suffix}", 0x10, _fmt, f3=2))
    _add(_fp(f"fmin{_suffix}", 0x14, _fmt, f3=0))
    _add(_fp(f"fmax{_suffix}", 0x14, _fmt, f3=1))
    _add(_fp(f"feq{_suffix}", 0x50, _fmt, f3=2))
    _add(_fp(f"flt{_suffix}", 0x50, _fmt, f3=1))
    _add(_fp(f"fle{_suffix}", 0x50, _fmt, f3=0))
for _m in ["fmadd", "fmsub", "fnmsub", "fnmadd"]:
    for _suffix, _fmt in [(".s", 0), (".d", 1)]:
        opcode = {"fmadd": OPCODE_MADD, "fmsub": OPCODE_MSUB, "fnmsub": OPCODE_NMSUB, "fnmadd": OPCODE_NMADD}[_m]
        _add(InsnSpec(f"{_m}{_suffix}", "R4", opcode, fp_fmt=_fmt))
# Conversions / moves used by the code generator.
_add(_fp("fcvt.d.w", 0x69, 1, rs2_field=0))
_add(_fp("fcvt.d.l", 0x69, 1, rs2_field=2))
_add(_fp("fcvt.w.d", 0x61, 1, rs2_field=0))
_add(_fp("fcvt.l.d", 0x61, 1, rs2_field=2))
_add(_fp("fcvt.s.d", 0x20, 0, rs2_field=1))
_add(_fp("fcvt.d.s", 0x21, 1, rs2_field=0))
_add(_fp("fcvt.s.w", 0x68, 0, rs2_field=0))
_add(_fp("fcvt.s.l", 0x68, 0, rs2_field=2))
_add(_fp("fcvt.w.s", 0x60, 0, rs2_field=0))
_add(_fp("fmv.x.d", 0x71, 1, f3=0, rs2_field=0))
_add(_fp("fmv.d.x", 0x79, 1, f3=0, rs2_field=0))
_add(_fp("fmv.x.w", 0x70, 0, f3=0, rs2_field=0))
_add(_fp("fmv.w.x", 0x78, 0, f3=0, rs2_field=0))

# ---- RVV 1.0 slice ------------------------------------------------------------
_add(InsnSpec("vsetvli", "VSETVLI", OPCODE_OP_V, funct3=7))
_add(InsnSpec("vle32.v", "VLOAD", OPCODE_LOAD_FP, width=6))
_add(InsnSpec("vle64.v", "VLOAD", OPCODE_LOAD_FP, width=7))
_add(InsnSpec("vse32.v", "VSTORE", OPCODE_STORE_FP, width=6))
_add(InsnSpec("vse64.v", "VSTORE", OPCODE_STORE_FP, width=7))
# OPFVV (funct3=1) / OPFVF (funct3=5) arithmetic
_add(InsnSpec("vfadd.vv", "VARITH", OPCODE_OP_V, funct3=1, funct6=0x00))
_add(InsnSpec("vfsub.vv", "VARITH", OPCODE_OP_V, funct3=1, funct6=0x02))
_add(InsnSpec("vfmul.vv", "VARITH", OPCODE_OP_V, funct3=1, funct6=0x24))
_add(InsnSpec("vfmacc.vv", "VARITH", OPCODE_OP_V, funct3=1, funct6=0x2C))
_add(InsnSpec("vfadd.vf", "VARITH-F", OPCODE_OP_V, funct3=5, funct6=0x00))
_add(InsnSpec("vfmul.vf", "VARITH-F", OPCODE_OP_V, funct3=5, funct6=0x24))
_add(InsnSpec("vfmacc.vf", "VARITH-F", OPCODE_OP_V, funct3=5, funct6=0x2C))


# Element width in bytes per vector width code (VLOAD/VSTORE).
VECTOR_WIDTH_BYTES = {0: 1, 5: 2, 6: 4, 7: 8}

# vtype SEW encoding for vsetvli immediates.
SEW_CODES = {8: 0, 16: 1, 32: 2, 64: 3}
