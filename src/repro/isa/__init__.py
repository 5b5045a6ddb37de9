"""The ALM (ARM-like machine) instruction set: encoding, decoding, assembler."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".assembler": ["AssemblerError", "Program", "assemble"],
    ".encoding": ["EncodingError", "decode", "disassemble", "encode"],
    ".instructions": ["NUM_REGISTERS", "REG_LR", "REG_PC", "REG_SP",
                      "WORD_BYTES", "BranchOp", "Cond", "DpOp", "InsnClass",
                      "Instruction", "MemOp", "MulOp", "SysOp",
                      "condition_passed", "sign_extend"],
})

__all__ = [
    "AssemblerError",
    "BranchOp",
    "Cond",
    "DpOp",
    "EncodingError",
    "InsnClass",
    "Instruction",
    "MemOp",
    "MulOp",
    "NUM_REGISTERS",
    "Program",
    "REG_LR",
    "REG_PC",
    "REG_SP",
    "SysOp",
    "WORD_BYTES",
    "assemble",
    "condition_passed",
    "decode",
    "disassemble",
    "encode",
    "sign_extend",
]
