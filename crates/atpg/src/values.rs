//! Scalar ternary gate evaluation (the good/faulty halves of PODEM's
//! five-valued algebra).

use lbist_netlist::GateKind;
use lbist_sim::Logic;

/// Evaluates one gate over scalar ternary fanin values.
///
/// PODEM tracks a `(good, faulty)` [`Logic`] pair per node; both halves
/// evaluate with this function (the faulty half with the fault site's
/// override applied by the caller). `D` is then `(One, Zero)` and `D̄`
/// `(Zero, One)`.
///
/// # Panics
///
/// Panics if called for a frame-source kind.
///
/// # Example
///
/// ```
/// use lbist_netlist::GateKind;
/// use lbist_sim::Logic;
/// use lbist_atpg::eval_logic;
/// assert_eq!(eval_logic(GateKind::And, &[Logic::One, Logic::X]), Logic::X);
/// assert_eq!(eval_logic(GateKind::And, &[Logic::Zero, Logic::X]), Logic::Zero);
/// ```
pub fn eval_logic(kind: GateKind, fanins: &[Logic]) -> Logic {
    eval_logic_with(kind, fanins.len(), |i| fanins[i])
}

/// [`eval_logic`] over `n` fanin values read through `at(pin)`: the one
/// definition of the ternary gate semantics. PODEM reads its node value
/// arrays through it directly instead of gathering them into a buffer.
#[inline]
pub(crate) fn eval_logic_with(kind: GateKind, n: usize, at: impl Fn(usize) -> Logic) -> Logic {
    match kind {
        GateKind::Buf | GateKind::Output => at(0),
        GateKind::Not => !at(0),
        GateKind::And => (0..n).fold(Logic::One, |acc, i| acc & at(i)),
        GateKind::Nand => !(0..n).fold(Logic::One, |acc, i| acc & at(i)),
        GateKind::Or => (0..n).fold(Logic::Zero, |acc, i| acc | at(i)),
        GateKind::Nor => !(0..n).fold(Logic::Zero, |acc, i| acc | at(i)),
        GateKind::Xor => (0..n).fold(Logic::Zero, |acc, i| acc ^ at(i)),
        GateKind::Xnor => !(0..n).fold(Logic::Zero, |acc, i| acc ^ at(i)),
        GateKind::Mux2 => match at(0) {
            Logic::Zero => at(1),
            Logic::One => at(2),
            Logic::X => {
                let (a, b) = (at(1), at(2));
                if a == b && !a.is_x() {
                    a
                } else {
                    Logic::X
                }
            }
        },
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Input | GateKind::Dff | GateKind::XSource => {
            unreachable!("frame sources are never evaluated")
        }
    }
}

/// The value that forces an AND/OR-family gate's output regardless of its
/// other inputs, if the kind has one.
pub(crate) fn controlling_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(false),
        GateKind::Or | GateKind::Nor => Some(true),
        _ => None,
    }
}

/// Whether the gate inverts (output parity relative to its inputs).
pub(crate) fn inverts(kind: GateKind) -> bool {
    matches!(kind, GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_bitparallel_semantics_on_definite_values() {
        // Cross-check against the 64-wide evaluator for all 2-input
        // definite combinations.
        use lbist_sim::eval_gate;
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in [false, true] {
                for b in [false, true] {
                    let scalar = eval_logic(kind, &[Logic::from_bool(a), Logic::from_bool(b)]);
                    let wide =
                        eval_gate(kind, &[if a { !0u64 } else { 0 }, if b { !0u64 } else { 0 }]);
                    assert_eq!(scalar.to_bool(), Some(wide & 1 == 1), "{kind} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn mux_select_x_agreement() {
        assert_eq!(eval_logic(GateKind::Mux2, &[Logic::X, Logic::One, Logic::One]), Logic::One);
        assert_eq!(eval_logic(GateKind::Mux2, &[Logic::X, Logic::One, Logic::Zero]), Logic::X);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(controlling_value(GateKind::And), Some(false));
        assert_eq!(controlling_value(GateKind::Nor), Some(true));
        assert_eq!(controlling_value(GateKind::Xor), None);
    }

    #[test]
    fn inversion_parity() {
        assert!(inverts(GateKind::Nand));
        assert!(!inverts(GateKind::And));
        assert!(inverts(GateKind::Xnor));
    }
}
