//! A fully-linked program: code, initial data image, and function metadata.

use std::collections::BTreeMap;
use std::fmt;

use crate::instr::Instr;
use crate::{fnv1a, fnv1a_with};

/// Metadata for one function in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncMeta {
    /// Function name.
    pub name: String,
    /// Index of the first instruction of the function.
    pub start: usize,
    /// One past the index of the last instruction of the function.
    pub end: usize,
    /// Whether the user marked this function as *eligible* for low-reliability
    /// tagging (paper §4: "Only functions that were user-identified as
    /// eligible were tagged").
    pub eligible: bool,
}

impl FuncMeta {
    /// Whether `index` lies inside this function.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }
}

/// Errors detected when validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch/jump/call target points outside the code array.
    TargetOutOfRange {
        /// Instruction index of the offending control transfer.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The entry point is outside the code array.
    EntryOutOfRange {
        /// The out-of-range entry index.
        entry: usize,
    },
    /// Two functions overlap, or a function range is inverted/out of range.
    BadFunctionRange {
        /// Name of the offending function.
        name: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range index {target}")
            }
            ProgramError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry} is out of range")
            }
            ProgramError::BadFunctionRange { name } => {
                write!(f, "function `{name}` has an invalid or overlapping range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete, executable program.
///
/// Produced by the assembler in `certa-asm`, analyzed by `certa-core`, and
/// executed by `certa-sim`.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instruction stream. Branch targets are indices into this vector.
    pub code: Vec<Instr>,
    /// Initial image of the data segment, loaded at address 0.
    pub data: Vec<u8>,
    /// Entry instruction index.
    pub entry: usize,
    /// Function table, sorted by start index.
    pub functions: Vec<FuncMeta>,
    /// Label name → instruction index (for diagnostics and disassembly).
    pub labels: BTreeMap<String, usize>,
}

impl Program {
    /// Validates internal consistency (targets in range, function table sane).
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.entry >= self.code.len() && !self.code.is_empty() {
            return Err(ProgramError::EntryOutOfRange { entry: self.entry });
        }
        for (at, instr) in self.code.iter().enumerate() {
            if let Some(target) = instr.static_target() {
                if target >= self.code.len() {
                    return Err(ProgramError::TargetOutOfRange { at, target });
                }
            }
        }
        let mut prev_end = 0usize;
        let mut sorted = self.functions.clone();
        sorted.sort_by_key(|f| f.start);
        for f in &sorted {
            if f.start >= f.end || f.end > self.code.len() || f.start < prev_end {
                return Err(ProgramError::BadFunctionRange {
                    name: f.name.clone(),
                });
            }
            prev_end = f.end;
        }
        Ok(())
    }

    /// The function containing instruction `index`, if any.
    #[must_use]
    pub fn function_at(&self, index: usize) -> Option<&FuncMeta> {
        self.functions.iter().find(|f| f.contains(index))
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&FuncMeta> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Whether instruction `index` is inside a user-marked eligible function.
    #[must_use]
    pub fn is_eligible(&self, index: usize) -> bool {
        self.function_at(index).is_some_and(|f| f.eligible)
    }

    /// Identity of the code: FNV-1a over a fixed encoding of every
    /// instruction, then the entry point and every function start. That is
    /// everything a CFG's basic blocks — and native code generated from
    /// them — depend on, so code generated from one program serves any
    /// program of the same length and fingerprint. The data image, labels,
    /// function names and eligibility do not enter it.
    #[must_use]
    pub fn code_fingerprint(&self) -> u64 {
        let mut hash = fnv1a(&[]);
        for instr in &self.code {
            hash = fnv1a_with(hash, &instr.encoding());
        }
        hash = fnv1a_with(hash, &(self.entry as u64).to_le_bytes());
        for f in &self.functions {
            hash = fnv1a_with(hash, &(f.start as u64).to_le_bytes());
        }
        hash
    }

    /// Renders a human-readable disassembly listing with labels.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut by_index: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, &idx) in &self.labels {
            by_index.entry(idx).or_default().push(name);
        }
        let mut out = String::new();
        for (i, instr) in self.code.iter().enumerate() {
            if let Some(names) = by_index.get(&i) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "  {i:5}  {instr}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn prog(code: Vec<Instr>) -> Program {
        Program {
            code,
            ..Program::default()
        }
    }

    #[test]
    fn validate_catches_bad_target() {
        let p = prog(vec![Instr::Jump { target: 10 }]);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::TargetOutOfRange { at: 0, target: 10 })
        ));
    }

    #[test]
    fn validate_catches_bad_entry() {
        let mut p = prog(vec![Instr::Halt]);
        p.entry = 5;
        assert!(matches!(
            p.validate(),
            Err(ProgramError::EntryOutOfRange { entry: 5 })
        ));
    }

    #[test]
    fn validate_catches_overlapping_functions() {
        let mut p = prog(vec![Instr::Nop, Instr::Nop, Instr::Halt]);
        p.functions = vec![
            FuncMeta {
                name: "a".into(),
                start: 0,
                end: 2,
                eligible: true,
            },
            FuncMeta {
                name: "b".into(),
                start: 1,
                end: 3,
                eligible: false,
            },
        ];
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BadFunctionRange { .. })
        ));
    }

    #[test]
    fn eligibility_lookup() {
        let mut p = prog(vec![Instr::Nop, Instr::Nop, Instr::Halt]);
        p.functions = vec![FuncMeta {
            name: "kernel".into(),
            start: 0,
            end: 2,
            eligible: true,
        }];
        assert!(p.is_eligible(0));
        assert!(p.is_eligible(1));
        assert!(!p.is_eligible(2));
        assert_eq!(p.function("kernel").unwrap().start, 0);
        assert!(p.function("missing").is_none());
    }

    #[test]
    fn code_fingerprint_tracks_code_entry_and_function_starts() {
        let base = prog(vec![Instr::Nop, Instr::Jump { target: 0 }, Instr::Halt]);
        let fp = base.code_fingerprint();
        assert_eq!(fp, base.clone().code_fingerprint());

        let mut data = base.clone();
        data.data = vec![1, 2, 3];
        data.labels.insert("main".into(), 0);
        assert_eq!(data.code_fingerprint(), fp, "data and labels are not code");

        let mut target = base.clone();
        target.code[1] = Instr::Jump { target: 2 };
        let mut entry = base.clone();
        entry.entry = 1;
        let mut func = base.clone();
        func.functions.push(FuncMeta {
            name: "f".into(),
            start: 2,
            end: 3,
            eligible: false,
        });
        for changed in [target, entry, func] {
            assert_ne!(changed.code_fingerprint(), fp);
        }
    }

    #[test]
    fn disassembly_includes_labels() {
        let mut p = prog(vec![Instr::Nop, Instr::Halt]);
        p.labels.insert("main".into(), 0);
        let text = p.disassemble();
        assert!(text.contains("main:"));
        assert!(text.contains("halt"));
    }
}
