//! Small shared helpers: bit manipulation and index permutations.

/// Reverses the lowest `bits` bits of `x`.
#[inline]
pub fn reverse_bits(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes a slice into bit-reversed order in place.
///
/// # Panics
///
/// Panics if the slice length is not a power of two.
pub fn bit_reverse_permute<T>(a: &mut [T]) {
    let n = a.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = reverse_bits(i, bits);
        if i < j {
            a.swap(i, j);
        }
    }
}

/// Integer log2 of a power of two.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[inline]
pub fn log2_exact(n: usize) -> u32 {
    assert!(n.is_power_of_two(), "{n} is not a power of two");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bits_basic() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(1, 10), 512);
        assert_eq!(reverse_bits(0, 0), 0);
    }

    #[test]
    fn bit_reverse_permute_is_involution() {
        let mut v: Vec<usize> = (0..64).collect();
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }
}
