//! AIG edges: node references with a complement bit.

use std::fmt;

/// A reference to an AIG node, possibly complemented.
///
/// Encoded as `node_index << 1 | complement`. Node 0 is the constant-true
/// node, so [`AigEdge::TRUE`] has code 0 and [`AigEdge::FALSE`] code 1.
///
/// # Examples
///
/// ```
/// use hqs_aig::AigEdge;
/// let t = AigEdge::TRUE;
/// assert_eq!(!t, AigEdge::FALSE);
/// assert!(AigEdge::FALSE.is_complemented());
/// assert_eq!(t.node(), AigEdge::FALSE.node());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigEdge(u32);

impl AigEdge {
    /// The constant-true function.
    pub const TRUE: AigEdge = AigEdge(0);
    /// The constant-false function.
    pub const FALSE: AigEdge = AigEdge(1);

    /// Creates an edge to `node`, complemented if `complement` is set.
    #[inline]
    #[must_use]
    pub fn new(node: u32, complement: bool) -> Self {
        AigEdge(node << 1 | u32::from(complement))
    }

    /// Returns the referenced node index.
    #[inline]
    #[must_use]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Returns `true` if the edge carries an inverter.
    #[inline]
    #[must_use]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the dense code `node << 1 | complement`.
    #[inline]
    #[must_use]
    pub fn code(self) -> u32 {
        self.0
    }

    /// The edge with dense code `code` (the inverse of [`code`](Self::code)).
    #[inline]
    #[must_use]
    pub(crate) fn from_code(code: u32) -> Self {
        AigEdge(code)
    }

    /// Returns this edge with an extra complement applied if `flip`.
    #[inline]
    #[must_use]
    pub fn xor_complement(self, flip: bool) -> Self {
        AigEdge(self.0 ^ u32::from(flip))
    }

    /// Returns the uncomplemented edge to the same node.
    #[inline]
    #[must_use]
    pub fn regular(self) -> Self {
        AigEdge(self.0 & !1)
    }

    /// Returns `true` if this edge denotes a constant function.
    #[inline]
    #[must_use]
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }
}

impl std::ops::Not for AigEdge {
    type Output = AigEdge;

    #[inline]
    fn not(self) -> AigEdge {
        AigEdge(self.0 ^ 1)
    }
}

impl fmt::Debug for AigEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigEdge::TRUE {
            write!(f, "⊤")
        } else if *self == AigEdge::FALSE {
            write!(f, "⊥")
        } else if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(AigEdge::TRUE.node(), 0);
        assert_eq!(AigEdge::FALSE.node(), 0);
        assert!(!AigEdge::TRUE.is_complemented());
        assert!(AigEdge::FALSE.is_complemented());
        assert!(AigEdge::TRUE.is_constant() && AigEdge::FALSE.is_constant());
    }

    #[test]
    fn complement_involution() {
        let e = AigEdge::new(7, false);
        assert_eq!(!!e, e);
        assert_ne!(!e, e);
        assert_eq!((!e).node(), e.node());
    }

    #[test]
    fn xor_and_regular() {
        let e = AigEdge::new(3, true);
        assert_eq!(e.xor_complement(true), AigEdge::new(3, false));
        assert_eq!(e.xor_complement(false), e);
        assert_eq!(e.regular(), AigEdge::new(3, false));
    }
}
