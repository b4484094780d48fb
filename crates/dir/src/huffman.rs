//! Canonical Huffman coding over small symbol alphabets.
//!
//! Implements the "sophisticated encoding of the Huffman type" from the
//! paper's Section 3.2: symbols that occur often in the *static* program
//! representation get short codes. Code *lengths* come from Huffman's
//! algorithm; the bit patterns are then reassigned in canonical order
//! (sorted by length, then symbol), which leaves every modeled quantity —
//! program bits, decode cost, table size — untouched while making the
//! codebook amenable to table-driven decoding.
//!
//! Two decode paths share one cursor discipline:
//! [`Tree::decode`] walks the binary decode tree bit by bit — the
//! reference oracle whose cost profile matches the paper's "two
//! instructions per level of decoding" — while [`Tree::decode_table`]
//! peeks a [`LUT_BITS`]-bit window, resolves short codes in one lookup,
//! and falls back to the tree walk for codes longer than the window.
//! Both report the same `(symbol, bits_consumed)` on the same streams and
//! fail on the same truncated streams, so the modeled decode-cost
//! accounting is identical whichever path runs.

use crate::bitstream::{BitReader, BitWriter, BitsExhausted};

/// Window width of the decode lookup table. Codes at most this long
/// resolve in a single peek; longer codes (rare by construction — they
/// belong to low-frequency symbols) take the tree-walk slow path.
pub const LUT_BITS: u32 = 10;

/// One lookup-table slot: the symbol whose code is a prefix of the
/// window, and that code's length. `len == 0` marks a window whose code
/// is longer than the table is wide (slow path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LutEntry {
    sym: u32,
    len: u32,
}

/// A Huffman codebook for symbols `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// `codes[s]` is the (code, width) for symbol `s`; zero-frequency
    /// symbols still receive a code so that any program can be encoded.
    /// Bit patterns are canonical: sorted by (width, symbol).
    codes: Vec<(u64, u32)>,
    /// Flattened decode tree: nodes of `(left, right)`, negative values are
    /// `-(symbol + 1)` leaves, non-negative are node indices. Node 0 is the
    /// root.
    nodes: Vec<(i32, i32)>,
    /// `1 << lut_bits` slots indexed by the next `lut_bits` bits of the
    /// stream. Host-side acceleration only: deliberately *not* part of
    /// [`Tree::table_bits`], which models the interpreter the paper costs.
    lut: Vec<LutEntry>,
    /// Window width actually used: `min(LUT_BITS, longest code)`.
    lut_bits: u32,
}

impl Tree {
    /// Builds a codebook from symbol frequencies.
    ///
    /// Zero frequencies are bumped to one so every symbol remains
    /// encodable (the paper's encodings must handle any legal program, not
    /// just those seen when gathering statistics).
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty.
    pub fn from_frequencies(freqs: &[u64]) -> Tree {
        assert!(!freqs.is_empty(), "alphabet must be non-empty");
        let n = freqs.len();
        if n == 1 {
            // Degenerate alphabet: one symbol, one-bit code. Both window
            // halves resolve to it — mirroring the tree, whose single
            // node leads to symbol 0 on either bit.
            return Tree {
                codes: vec![(0, 1)],
                nodes: vec![(-1, -1)],
                lut: vec![LutEntry { sym: 0, len: 1 }; 2],
                lut_bits: 1,
            };
        }
        // Huffman's algorithm with a simple sorted work list (alphabets here
        // are tiny, so O(n^2) is irrelevant). Leaves are nodes `0..n`; each
        // merge makes the next node, whose number is also its tiebreak, and
        // records it as its two children's parent.
        let mut work: Vec<(u64, usize)> = freqs.iter().map(|&f| f.max(1)).zip(0..n).collect();
        let mut parent = vec![0usize; 2 * n - 1];
        let mut next = n;
        while work.len() > 1 {
            // Stable selection: lowest frequency, then lowest tiebreak, so
            // the tree is deterministic.
            work.sort_unstable();
            let (f1, n1) = work.remove(0);
            let (f2, n2) = work.remove(0);
            parent[n1] = next;
            parent[n2] = next;
            work.push((f1 + f2, next));
            next += 1;
        }

        // Only the code *lengths* come from the tree shape; bit patterns
        // are reassigned canonically below. Lengths alone determine every
        // modeled quantity (program bits, decode levels, Kraft sum). A
        // parent is always numbered above its children, so one pass down
        // from the root (the last node) gives every node its depth.
        let root = 2 * n - 2;
        let mut depth = vec![0u32; 2 * n - 1];
        for node in (0..root).rev() {
            depth[node] = depth[parent[node]] + 1;
        }
        let lengths: Vec<u32> = depth[..n].iter().map(|&d| d.max(1)).collect();

        // Canonical assignment: symbols sorted by (length, symbol) receive
        // consecutive codes, left-shifted at each length increase. Kraft
        // equality of Huffman lengths guarantees no overflow.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&s| (lengths[s], s));
        let mut codes = vec![(0u64, 0u32); n];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for &s in &order {
            let len = lengths[s];
            code <<= len - prev_len;
            codes[s] = (code, len);
            code += 1;
            prev_len = len;
        }

        let nodes = decode_nodes(&codes);
        let (lut, lut_bits) = decode_lut(&codes);
        Tree {
            codes,
            nodes,
            lut,
            lut_bits,
        }
    }

    /// The code width in bits for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is out of range.
    pub fn width(&self, symbol: usize) -> u32 {
        self.codes[symbol].1
    }

    /// Writes the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is out of range.
    pub fn encode(&self, symbol: usize, out: &mut BitWriter) {
        let (code, width) = self.codes[symbol];
        out.write(code, width);
    }

    /// Reads one symbol, returning `(symbol, bits_consumed)`.
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] if the stream ends mid-code.
    pub fn decode(&self, input: &mut BitReader<'_>) -> Result<(usize, u32), BitsExhausted> {
        // Degenerate single-symbol alphabet still consumes its 1-bit code.
        if self.codes.len() == 1 {
            input.read_bitwise(1)?;
            return Ok((0, 1));
        }
        let mut node = 0i32;
        let mut bits = 0u32;
        loop {
            let bit = input.read_bit()?;
            bits += 1;
            let (l, r) = self.nodes[node as usize];
            let next = if bit { r } else { l };
            if next < 0 {
                return Ok(((-next - 1) as usize, bits));
            }
            node = next;
        }
    }

    /// Reads one symbol through the lookup table: one peek resolves any
    /// code at most [`LUT_BITS`] long; longer codes fall back to the tree
    /// walk. Returns exactly what [`Tree::decode`] returns on the same
    /// stream — same symbol, same consumed bits, same `BitsExhausted` on
    /// truncation — only the host cost differs.
    ///
    /// Why truncation parity holds: the table is filled so that every
    /// window sharing a code prefix maps to that code's entry. If the
    /// entry's length fits in the remaining bits, those bits *are* the
    /// code (zero padding past the end never reaches them). If it does
    /// not fit, prefix-freeness means no shorter code fits either, so the
    /// oracle exhausts the stream just as `consume` does here.
    ///
    /// # Errors
    ///
    /// Returns [`BitsExhausted`] if the stream ends mid-code.
    #[inline]
    pub fn decode_table(&self, input: &mut BitReader<'_>) -> Result<(usize, u32), BitsExhausted> {
        if self.codes.len() == 1 {
            input.consume(1)?;
            return Ok((0, 1));
        }
        let window = input.peek(self.lut_bits);
        let entry = self.lut[window as usize];
        if entry.len != 0 {
            input.consume(entry.len)?;
            return Ok((entry.sym as usize, entry.len));
        }
        self.decode(input)
    }

    /// Resolves a symbol from an already-peeked 57-bit window (value in
    /// the low 57 bits, stream order from the top). Returns the symbol
    /// and its code length on a LUT hit, or `None` when the code is
    /// longer than the table window (caller falls back to
    /// [`Tree::decode_table`]). Nothing is consumed; the caller owns the
    /// cursor. The degenerate single-symbol codebook reports its 1-bit
    /// code, matching [`Tree::decode_table`].
    #[inline]
    pub(crate) fn lut_hit(&self, window57: u64) -> Option<(usize, u32)> {
        if self.codes.len() == 1 {
            return Some((0, 1));
        }
        let idx = (window57 >> (57 - self.lut_bits)) as usize;
        let entry = self.lut[idx];
        if entry.len != 0 {
            Some((entry.sym as usize, entry.len))
        } else {
            None
        }
    }

    /// Approximate size in bits of the decode structure, charged to the
    /// interpreter under the encoding-size accounting (two 16-bit links per
    /// node).
    pub fn table_bits(&self) -> u64 {
        self.nodes.len() as u64 * 32
    }

    /// Statically validates the codebook: every code width must be
    /// representable, no code may prefix another, and the code space must
    /// be exactly full (Kraft equality), so that every bit sequence decodes
    /// to exactly one symbol. Trees built by [`Tree::from_frequencies`]
    /// always pass; a tree whose side tables were damaged in storage does
    /// not, and the load-time verifier turns that into a typed diagnostic
    /// instead of a mid-run decode trap.
    ///
    /// # Errors
    ///
    /// Returns the first [`CodebookIssue`] found.
    pub fn check(&self) -> Result<(), CodebookIssue> {
        check_codes(&self.codes)
    }

    /// The raw `(code, width)` codebook, indexed by symbol.
    pub(crate) fn codes(&self) -> &[(u64, u32)] {
        &self.codes
    }

    /// Rebuilds this tree with a replacement codebook while keeping the
    /// decode structures. The result is deliberately inconsistent: it
    /// exists solely so the analyze plane's negative fixtures can model a
    /// codebook damaged in storage without constructing an undecodable
    /// trie. Never constructed outside [`crate::encode::fixtures`].
    pub(crate) fn with_codes(&self, codes: Vec<(u64, u32)>) -> Tree {
        Tree {
            codes,
            nodes: self.nodes.clone(),
            lut: self.lut.clone(),
            lut_bits: self.lut_bits,
        }
    }

    /// Expected code width in bits under the given frequency distribution.
    pub fn expected_width(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().map(|&f| f.max(1)).sum();
        self.codes
            .iter()
            .zip(freqs)
            .map(|(&(_, w), &f)| w as f64 * f.max(1) as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Rebuilds the flattened decode tree from a canonical codebook by trie
/// insertion. Huffman lengths satisfy Kraft equality, so the trie is a
/// full binary tree with the same `n - 1` internal nodes the frequency
/// tree had — [`Tree::table_bits`] is unchanged by canonicalization.
fn decode_nodes(codes: &[(u64, u32)]) -> Vec<(i32, i32)> {
    // i32::MIN marks a slot not yet claimed by any code.
    const UNSET: i32 = i32::MIN;
    let mut nodes: Vec<(i32, i32)> = vec![(UNSET, UNSET)];
    for (sym, &(code, len)) in codes.iter().enumerate() {
        let mut node = 0usize;
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            let slot = if bit == 0 {
                nodes[node].0
            } else {
                nodes[node].1
            };
            let next = if i == 0 {
                debug_assert_eq!(slot, UNSET, "codes are not prefix-free");
                -((sym as i32) + 1)
            } else if slot == UNSET {
                nodes.push((UNSET, UNSET));
                (nodes.len() - 1) as i32
            } else {
                slot
            };
            if bit == 0 {
                nodes[node].0 = next;
            } else {
                nodes[node].1 = next;
            }
            if i > 0 {
                node = next as usize;
            }
        }
    }
    debug_assert!(
        nodes.iter().all(|&(l, r)| l != UNSET && r != UNSET),
        "Kraft equality must fill the decode tree"
    );
    nodes
}

/// Builds the peek lookup table: every window whose leading bits are a
/// code of length `<= lut_bits` maps to that code's entry; windows whose
/// code is longer keep the default `len == 0` slow-path marker.
fn decode_lut(codes: &[(u64, u32)]) -> (Vec<LutEntry>, u32) {
    let max_len = codes.iter().map(|&(_, l)| l).max().unwrap_or(1);
    let lut_bits = max_len.clamp(1, LUT_BITS);
    let mut lut = vec![LutEntry::default(); 1usize << lut_bits];
    for (sym, &(code, len)) in codes.iter().enumerate() {
        if len <= lut_bits {
            let lo = (code << (lut_bits - len)) as usize;
            let hi = ((code + 1) << (lut_bits - len)) as usize;
            let entry = LutEntry {
                sym: sym as u32,
                len,
            };
            lut[lo..hi].fill(entry);
        }
    }
    (lut, lut_bits)
}

/// A defect in a Huffman codebook found by [`Tree::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodebookIssue {
    /// A code is wider than 64 bits (or zero bits in a multi-symbol
    /// alphabet), so it cannot be read from the stream.
    BadWidth {
        /// The symbol with the malformed width.
        symbol: usize,
        /// Its claimed width in bits.
        width: u32,
    },
    /// One symbol's code is a prefix of another's: decoding is ambiguous.
    PrefixConflict {
        /// The symbol whose code is the prefix.
        prefix: usize,
        /// The symbol whose code extends it.
        extended: usize,
    },
    /// The Kraft sum is below one: some bit sequences decode to no
    /// symbol, so a stream can fail mid-decode (truncated codebook).
    Incomplete,
    /// The Kraft sum exceeds one: the code space is oversubscribed.
    Oversubscribed,
}

impl std::fmt::Display for CodebookIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodebookIssue::BadWidth { symbol, width } => {
                write!(f, "symbol {symbol} has unusable code width {width}")
            }
            CodebookIssue::PrefixConflict { prefix, extended } => {
                write!(
                    f,
                    "code for symbol {prefix} is a prefix of the code for symbol {extended}"
                )
            }
            CodebookIssue::Incomplete => {
                write!(f, "codebook is incomplete (Kraft sum below one)")
            }
            CodebookIssue::Oversubscribed => {
                write!(
                    f,
                    "codebook oversubscribes the code space (Kraft sum above one)"
                )
            }
        }
    }
}

impl std::error::Error for CodebookIssue {}

/// Validates an explicit `(code, width)` codebook: width sanity,
/// prefix-freeness, and Kraft equality. See [`Tree::check`].
///
/// A single-symbol alphabet is exempt from the completeness requirement:
/// its degenerate 1-bit code intentionally leaves half the code space
/// unused (both window halves decode to the one symbol).
///
/// # Errors
///
/// Returns the first [`CodebookIssue`] found.
pub fn check_codes(codes: &[(u64, u32)]) -> Result<(), CodebookIssue> {
    for (symbol, &(_, width)) in codes.iter().enumerate() {
        if width > 64 || (width == 0 && codes.len() > 1) {
            return Err(CodebookIssue::BadWidth { symbol, width });
        }
    }
    for a in 0..codes.len() {
        for b in (a + 1)..codes.len() {
            let (short, long) = if codes[a].1 <= codes[b].1 {
                (a, b)
            } else {
                (b, a)
            };
            let (cs, ws) = codes[short];
            let (cl, wl) = codes[long];
            if ws == 0 || wl == 0 {
                continue; // BadWidth already screened multi-symbol zeros.
            }
            if cl >> (wl - ws) == cs {
                return Err(CodebookIssue::PrefixConflict {
                    prefix: short,
                    extended: long,
                });
            }
        }
    }
    if codes.len() > 1 {
        // Kraft sum in units of 2^-64: sum of 2^(64 - w) must be 2^64.
        let mut sum: u128 = 0;
        for &(_, w) in codes {
            sum += 1u128 << (64 - w);
        }
        match sum.cmp(&(1u128 << 64)) {
            std::cmp::Ordering::Less => return Err(CodebookIssue::Incomplete),
            std::cmp::Ordering::Greater => return Err(CodebookIssue::Oversubscribed),
            std::cmp::Ordering::Equal => {}
        }
    }
    Ok(())
}

/// Shannon entropy (bits/symbol) of a frequency distribution, the lower
/// bound on any prefix code's expected width.
pub fn entropy(freqs: &[u64]) -> f64 {
    let total: u64 = freqs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], symbols: &[usize]) {
        let tree = Tree::from_frequencies(freqs);
        let mut w = BitWriter::new();
        for &s in symbols {
            tree.encode(s, &mut w);
        }
        let (buf, len) = w.finish();
        let mut r = BitReader::new(&buf, len);
        for &s in symbols {
            let (got, bits) = tree.decode(&mut r).unwrap();
            assert_eq!(got, s);
            assert_eq!(bits, tree.width(s));
        }
        assert_eq!(r.position(), len);
    }

    #[test]
    fn skewed_distribution_round_trips() {
        round_trip(&[100, 10, 5, 1], &[0, 1, 2, 3, 0, 0, 1, 3, 2, 0]);
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let tree = Tree::from_frequencies(&[1000, 10, 10, 10]);
        assert!(tree.width(0) < tree.width(1));
        assert_eq!(tree.width(0), 1);
    }

    #[test]
    fn uniform_distribution_is_balanced() {
        let tree = Tree::from_frequencies(&[5, 5, 5, 5]);
        for s in 0..4 {
            assert_eq!(tree.width(s), 2);
        }
    }

    #[test]
    fn zero_frequency_symbols_remain_encodable() {
        round_trip(&[100, 0, 0, 50], &[1, 2, 0, 3]);
    }

    #[test]
    fn single_symbol_alphabet() {
        round_trip(&[7], &[0, 0, 0]);
    }

    #[test]
    fn two_symbol_alphabet() {
        let tree = Tree::from_frequencies(&[1, 1]);
        assert_eq!(tree.width(0), 1);
        assert_eq!(tree.width(1), 1);
        round_trip(&[1, 1], &[0, 1, 1, 0]);
    }

    #[test]
    fn expected_width_at_least_entropy() {
        let freqs = [50u64, 30, 12, 5, 2, 1];
        let tree = Tree::from_frequencies(&freqs);
        let h = entropy(&freqs);
        let w = tree.expected_width(&freqs);
        assert!(w >= h - 1e-9, "expected width {w} below entropy {h}");
        assert!(w <= h + 1.0, "Huffman is within 1 bit of entropy");
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs = [13u64, 7, 7, 3, 2, 1, 1, 1];
        let tree = Tree::from_frequencies(&freqs);
        let kraft: f64 = (0..freqs.len())
            .map(|s| 2f64.powi(-(tree.width(s) as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn codes_are_prefix_free() {
        let freqs = [40u64, 20, 10, 8, 4, 2, 1];
        let tree = Tree::from_frequencies(&freqs);
        let codes: Vec<(u64, u32)> = (0..freqs.len())
            .map(|s| (tree.codes[s].0, tree.width(s)))
            .collect();
        for (i, &(ca, wa)) in codes.iter().enumerate() {
            for (j, &(cb, wb)) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                if wa <= wb {
                    assert_ne!(cb >> (wb - wa), ca, "code {i} is a prefix of {j}");
                }
            }
        }
    }

    #[test]
    fn decode_mid_stream_error() {
        let tree = Tree::from_frequencies(&[1, 1, 1, 1, 1]);
        let buf = [0u8];
        // Claim only 1 bit available; deep codes need more.
        let mut r = BitReader::new(&buf, 1);
        // Either decodes a 1-bit symbol or errors; must not panic. With 5
        // uniform symbols no code is 1 bit, so this errors.
        assert!(tree.decode(&mut r).is_err());
    }

    #[test]
    fn deterministic_construction() {
        let a = Tree::from_frequencies(&[3, 3, 2, 2, 1]);
        let b = Tree::from_frequencies(&[3, 3, 2, 2, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn table_bits_positive() {
        let tree = Tree::from_frequencies(&[1, 2, 3]);
        assert!(tree.table_bits() > 0);
    }

    #[test]
    fn codes_are_canonical() {
        // Canonical property: sorted by (length, symbol), codes are
        // strictly increasing when left-aligned to a common width.
        let freqs = [40u64, 20, 10, 8, 4, 2, 1, 1];
        let tree = Tree::from_frequencies(&freqs);
        let mut order: Vec<usize> = (0..freqs.len()).collect();
        order.sort_by_key(|&s| (tree.width(s), s));
        let max = order.iter().map(|&s| tree.width(s)).max().unwrap();
        let aligned: Vec<u64> = order
            .iter()
            .map(|&s| tree.codes[s].0 << (max - tree.width(s)))
            .collect();
        for pair in aligned.windows(2) {
            assert!(pair[0] < pair[1], "canonical codes must increase");
        }
    }

    #[test]
    fn table_decode_matches_tree_decode() {
        let freqs = [500u64, 120, 40, 9, 3, 1, 1, 1, 1, 1, 1];
        let tree = Tree::from_frequencies(&freqs);
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let mut w = BitWriter::new();
        let mut symbols = Vec::new();
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (rng >> 33) as usize % freqs.len();
            tree.encode(s, &mut w);
            symbols.push(s);
        }
        let (buf, len) = w.finish();
        let mut tree_r = BitReader::new(&buf, len);
        let mut table_r = BitReader::new(&buf, len);
        for &s in &symbols {
            let a = tree.decode(&mut tree_r).unwrap();
            let b = tree.decode_table(&mut table_r).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.0, s);
            assert_eq!(tree_r.position(), table_r.position());
        }
    }

    #[test]
    fn table_decode_error_parity_on_truncation() {
        let freqs = [500u64, 120, 40, 9, 3, 1, 1, 1, 1, 1, 1];
        let tree = Tree::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        for s in 0..freqs.len() {
            tree.encode(s, &mut w);
        }
        let (buf, len) = w.finish();
        // Every truncation point: decode until the tree path errors, and
        // demand the table path error at the same symbol.
        for cut in 0..len {
            let mut tree_r = BitReader::new(&buf, cut);
            let mut table_r = BitReader::new(&buf, cut);
            loop {
                let a = tree.decode(&mut tree_r);
                let b = tree.decode_table(&mut table_r);
                assert_eq!(a, b, "divergence at cut {cut}");
                if a.is_err() {
                    break;
                }
                assert_eq!(tree_r.position(), table_r.position());
            }
        }
    }

    #[test]
    fn long_codes_take_the_slow_path_correctly() {
        // Fibonacci-ish frequencies force a deep, skewed tree with codes
        // longer than LUT_BITS, exercising the fallback.
        let freqs: Vec<u64> = {
            let (mut a, mut b) = (1u64, 1u64);
            (0..20)
                .map(|_| {
                    let f = a;
                    (a, b) = (b, a + b);
                    f
                })
                .collect()
        };
        let tree = Tree::from_frequencies(&freqs);
        let deepest = (0..freqs.len()).max_by_key(|&s| tree.width(s)).unwrap();
        assert!(
            tree.width(deepest) > LUT_BITS,
            "distribution failed to produce a long code"
        );
        let mut w = BitWriter::new();
        for s in (0..freqs.len()).chain([deepest, 0, deepest]) {
            tree.encode(s, &mut w);
        }
        let (buf, len) = w.finish();
        let mut tree_r = BitReader::new(&buf, len);
        let mut table_r = BitReader::new(&buf, len);
        while tree_r.position() < len {
            let a = tree.decode(&mut tree_r).unwrap();
            let b = tree.decode_table(&mut table_r).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn constructed_trees_pass_their_own_check() {
        for freqs in [
            vec![1u64],
            vec![1, 1],
            vec![100, 10, 5, 1],
            vec![13, 7, 7, 3, 2, 1, 1, 1],
            (1..=20u64).collect::<Vec<_>>(),
        ] {
            Tree::from_frequencies(&freqs).check().unwrap();
        }
    }

    #[test]
    fn check_codes_rejects_each_defect_class() {
        // Prefix conflict: 0 is a prefix of 01.
        assert_eq!(
            check_codes(&[(0, 1), (0b01, 2)]),
            Err(CodebookIssue::PrefixConflict {
                prefix: 0,
                extended: 1
            })
        );
        // Truncated: {0} alone leaves the 1-branch undecodable.
        assert_eq!(
            check_codes(&[(0, 1), (0b10, 2)]),
            Err(CodebookIssue::Incomplete)
        );
        // Oversubscribed: three 1-bit codes cannot coexist (and two of
        // them collide, which is detected first as a prefix conflict).
        assert!(check_codes(&[(0, 1), (1, 1), (0, 1)]).is_err());
        // Width zero in a multi-symbol alphabet is unusable.
        assert_eq!(
            check_codes(&[(0, 0), (1, 1)]),
            Err(CodebookIssue::BadWidth {
                symbol: 0,
                width: 0
            })
        );
        // The valid two-symbol book passes.
        check_codes(&[(0, 1), (1, 1)]).unwrap();
        // Degenerate single-symbol book is exempt from completeness.
        check_codes(&[(0, 1)]).unwrap();
    }

    #[test]
    fn degenerate_alphabet_table_decode() {
        let tree = Tree::from_frequencies(&[7]);
        let buf = [0b1010_0000u8];
        let mut r = BitReader::new(&buf, 3);
        for _ in 0..3 {
            assert_eq!(tree.decode_table(&mut r).unwrap(), (0, 1));
        }
        assert!(tree.decode_table(&mut r).is_err());
    }
}
