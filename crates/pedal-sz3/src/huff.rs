//! Canonical Huffman coding for the quantization-code alphabet.
//!
//! SZ3's quantizer produces indexes over a potentially huge alphabet
//! (up to 2*radius+1 symbols), of which one stream uses only a subset.
//! This coder:
//!
//! * densifies the alphabet to the *observed* symbols,
//! * builds length-limited canonical codes (reusing the DEFLATE machinery)
//!   and emits each code MSB-first with one bit-reversed write,
//! * decodes through a first-level lookup table indexed by the next
//!   `table_bits` payload bits (first code bit in bit 0). Each entry holds
//!   a symbol and its code length, so a short code costs one probe. The
//!   table starts at 11 bits (fewer if no code is that long) and widens
//!   while its codes cover less than 90% of the assigned code space, up
//!   to 16 bits and never past ⌈log2 n⌉ for an `n`-symbol stream: no
//!   table has more entries than the larger of 2048 and `n`.
//! * Longer codes and unassigned prefixes take a fallback that peeks
//!   `max_len` bits once and matches them against per-length
//!   `first_code`/`count` ranges.

use pedal_deflate::bitio::{reverse_bits, BitReader, BitWriter};
use pedal_deflate::huffman::build_code_lengths;

use crate::varint::{get_uvarint, put_uvarint};

/// Maximum code length for the quantization alphabet.
const MAX_LEN: usize = 27;

/// Narrowest first-level decode table, in bits.
const TABLE_MIN_BITS: usize = 11;
/// Widest first-level decode table, in bits.
const TABLE_MAX_BITS: usize = 16;

/// Symbol spans up to this size are densified through a direct slot table
/// instead of a sort (quantizer codes span `2 * radius`).
const DIRECT_SPAN: usize = 1 << 17;

/// Errors from Huffman stream decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffStreamError {
    /// Header truncated or malformed.
    BadHeader,
    /// Bitstream ended early or contained an unassigned code.
    BadStream,
    /// Stream declares more symbols than the caller's budget allows.
    LimitExceeded(usize),
}

impl std::fmt::Display for HuffStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffStreamError::BadHeader => write!(f, "bad huffman header"),
            HuffStreamError::BadStream => write!(f, "bad huffman bitstream"),
            HuffStreamError::LimitExceeded(n) => {
                write!(f, "huffman stream exceeds {n} symbols")
            }
        }
    }
}

impl std::error::Error for HuffStreamError {}

/// Encode a slice of u32 symbols into a self-describing blob:
/// header (symbol table + code lengths) followed by the bit-packed payload.
pub fn encode(symbols: &[u32]) -> Vec<u8> {
    let (distinct, dense) = densify(symbols);
    let mut freqs = vec![0u32; distinct.len()];
    for &d in &dense {
        freqs[d as usize] += 1;
    }
    let lengths = build_code_lengths(&freqs, MAX_LEN);

    // Header: n_symbols, count of distinct, then delta-varint symbol table,
    // then code lengths (one byte each).
    let mut out = Vec::with_capacity(symbols.len() / 2 + 64);
    put_uvarint(&mut out, symbols.len() as u64);
    put_uvarint(&mut out, distinct.len() as u64);
    let mut prev = 0u64;
    for &s in &distinct {
        put_uvarint(&mut out, s as u64 - prev);
        prev = s as u64;
    }
    out.extend(lengths.iter().copied());

    let mut w = BitWriter::with_capacity(symbols.len() / 2);
    // A single-symbol stream's payload carries nothing.
    if distinct.len() > 1 {
        // Canonical codes are MSB-first; the writer is LSB-first, so each
        // code goes out bit-reversed in one write.
        let codes: Vec<(u64, u32)> = canonical_codes(&lengths)
            .iter()
            .zip(&lengths)
            .map(|(&code, &len)| (reverse_bits(code, len as u32) as u64, len as u32))
            .collect();
        for &d in &dense {
            let (bits, len) = codes[d as usize];
            w.write_bits(bits, len);
        }
    }
    let payload = w.finish();
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// The observed alphabet in ascending order, and each symbol's index into
/// it.
fn densify(symbols: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (Some(&lo), Some(&hi)) = (symbols.iter().min(), symbols.iter().max()) else {
        return (Vec::new(), Vec::new());
    };
    let span = (hi - lo) as usize + 1;
    if span <= DIRECT_SPAN.max(symbols.len()) {
        const ABSENT: u32 = u32::MAX;
        let mut slot = vec![ABSENT; span];
        for &s in symbols {
            slot[(s - lo) as usize] = 0;
        }
        let mut distinct = Vec::new();
        for (off, v) in slot.iter_mut().enumerate() {
            if *v != ABSENT {
                *v = distinct.len() as u32;
                distinct.push(lo + off as u32);
            }
        }
        let dense = symbols.iter().map(|&s| slot[(s - lo) as usize]).collect();
        (distinct, dense)
    } else {
        let mut distinct = symbols.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let dense = symbols.iter().map(|s| distinct.binary_search(s).unwrap() as u32).collect();
        (distinct, dense)
    }
}

/// Decode a blob produced by [`encode`].
///
/// The declared symbol count is untrusted; multi-symbol streams are
/// allocation-bounded by the payload size, but a single-symbol stream can
/// legitimately describe any count in O(1) bytes — callers decoding
/// hostile input must use [`decode_with_limit`].
pub fn decode(data: &[u8]) -> Result<Vec<u32>, HuffStreamError> {
    decode_with_limit(data, usize::MAX)
}

/// Like [`decode`] but rejects any stream declaring more than
/// `max_symbols` symbols *before* allocating for them, so a corrupt or
/// hostile header cannot trigger an out-of-budget allocation.
pub fn decode_with_limit(data: &[u8], max_symbols: usize) -> Result<Vec<u32>, HuffStreamError> {
    let mut i = 0usize;
    let n = get_uvarint(data, &mut i).ok_or(HuffStreamError::BadHeader)? as usize;
    let k = get_uvarint(data, &mut i).ok_or(HuffStreamError::BadHeader)? as usize;
    if n > max_symbols {
        return Err(HuffStreamError::LimitExceeded(max_symbols));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if k == 0 {
        return Err(HuffStreamError::BadHeader);
    }
    // Every distinct symbol appears in the stream and costs at least one
    // header byte, so both bounds cap `k` by real input bytes.
    if k > n || k > data.len().saturating_sub(i) {
        return Err(HuffStreamError::BadHeader);
    }
    let mut distinct = Vec::with_capacity(k);
    let mut prev = 0u64;
    for _ in 0..k {
        let d = get_uvarint(data, &mut i).ok_or(HuffStreamError::BadHeader)?;
        // Checked add: a near-u64::MAX delta must not wrap the running
        // symbol value past the u32 plausibility check.
        prev = prev
            .checked_add(d)
            .filter(|&p| p <= u32::MAX as u64)
            .ok_or(HuffStreamError::BadHeader)?;
        distinct.push(prev as u32);
    }
    if i + k > data.len() {
        return Err(HuffStreamError::BadHeader);
    }
    let lengths = &data[i..i + k];
    i += k;
    let payload_len = get_uvarint(data, &mut i).ok_or(HuffStreamError::BadHeader)? as usize;
    // Checked add: a near-u64::MAX declared length must not wrap the
    // bounds comparison.
    let payload_end = i
        .checked_add(payload_len)
        .filter(|&end| end <= data.len())
        .ok_or(HuffStreamError::BadHeader)?;
    let payload = &data[i..payload_end];

    if k == 1 {
        return Ok(vec![distinct[0]; n]);
    }
    // With k > 1 every symbol costs at least one payload bit, so a count
    // that outruns the payload is corrupt — reject before reserving for it.
    if n > payload_len.saturating_mul(8) {
        return Err(HuffStreamError::BadStream);
    }

    let decoder = CanonicalDecoder::new(lengths, &distinct, n).ok_or(HuffStreamError::BadHeader)?;
    decoder.decode_all(payload, n)
}

/// Canonical code values (not bit-reversed; MSB-first semantics).
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u32; max_len + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_len + 2];
    let mut code = 0u32;
    for bits in 1..=max_len {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = vec![0u32; lengths.len()];
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 {
            codes[sym] = next_code[len as usize];
            next_code[len as usize] += 1;
        }
    }
    codes
}

/// One first-level table slot: the symbol whose code prefixes the peeked
/// bits and that code's length, or `len == 0` when no code of at most
/// `table_bits` bits does.
#[derive(Debug, Clone, Copy, Default)]
struct TableEntry {
    sym: u32,
    len: u8,
}

/// Table-driven canonical decoder with a per-length (Moffat–Turpin)
/// fallback for codes longer than the table.
struct CanonicalDecoder {
    /// first_code[l]: canonical code value of the first code of length l.
    first_code: Vec<u32>,
    /// first_index[l]: position in `order` of that first code.
    first_index: Vec<u32>,
    /// count[l]: number of codes of length l.
    count: Vec<u32>,
    /// Symbols sorted by (length, dense index) — canonical order.
    order: Vec<u32>,
    max_len: usize,
    /// First-level table, indexed by the next `table_bits` payload bits.
    table: Vec<TableEntry>,
    table_bits: usize,
}

impl CanonicalDecoder {
    /// Build the decoder for per-symbol code `lengths` over `symbols` (the
    /// dense alphabet) of a stream declaring `n` symbols. `None` when the
    /// lengths are empty, too long or oversubscribed.
    fn new(lengths: &[u8], symbols: &[u32], n: usize) -> Option<Self> {
        let max_len = lengths.iter().copied().max()? as usize;
        if max_len == 0 || max_len > MAX_LEN {
            return None;
        }
        let mut count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check: reject oversubscribed sets. `space[l]` is the code
        // space (in units of 2^-max_len) taken by codes of length <= l.
        let mut space = vec![0u64; max_len + 1];
        for l in 1..=max_len {
            space[l] = space[l - 1] + ((count[l] as u64) << (max_len - l));
        }
        let kraft = space[max_len];
        if kraft > 1u64 << max_len {
            return None;
        }
        let mut first_code = vec![0u32; max_len + 2];
        let mut first_index = vec![0u32; max_len + 2];
        let mut code = 0u32;
        let mut index = 0u32;
        for l in 1..=max_len {
            code = (code + if l > 1 { count[l - 1] } else { 0 }) << 1;
            first_code[l] = code;
            first_index[l] = index;
            index += count[l];
        }
        // Canonical symbol order: by (length, dense index).
        let mut order: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        for s in &mut order {
            *s = symbols[*s as usize];
        }

        // Table width: widen from the minimum until the table's codes cover
        // 90% of the assigned code space, within the caps.
        let ceil_log2_n = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
        let cap = TABLE_MAX_BITS.min(ceil_log2_n.max(TABLE_MIN_BITS)).min(max_len);
        let mut table_bits = TABLE_MIN_BITS.min(max_len);
        while table_bits < cap && space[table_bits] * 10 < kraft * 9 {
            table_bits += 1;
        }
        let mut table = vec![TableEntry::default(); 1 << table_bits];
        for l in 1..=table_bits {
            for off in 0..count[l] {
                let entry =
                    TableEntry { sym: order[(first_index[l] + off) as usize], len: l as u8 };
                // Every slot whose low `l` bits spell this code.
                let low = reverse_bits(first_code[l] + off, l as u32) as usize;
                for slot in table.iter_mut().skip(low).step_by(1 << l) {
                    *slot = entry;
                }
            }
        }
        Some(Self { first_code, first_index, count, order, max_len, table, table_bits })
    }

    /// Decode exactly `n` symbols from `payload`.
    fn decode_all(&self, payload: &[u8], n: usize) -> Result<Vec<u32>, HuffStreamError> {
        let mut r = BitReader::new(payload);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.decode(&mut r)?);
        }
        Ok(out)
    }

    #[inline]
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffStreamError> {
        // Near the end of the payload the peek pads with zeros; `consume`
        // then rejects a code longer than the bits actually left.
        let entry = self.table[r.peek_bits(self.table_bits as u32) as usize];
        if entry.len == 0 {
            return self.decode_long(r);
        }
        r.consume(entry.len as u32).map_err(|_| HuffStreamError::BadStream)?;
        Ok(entry.sym)
    }

    /// Codes longer than the table (or unassigned prefixes): one peek of
    /// `max_len` bits, turned MSB-first and matched per length.
    #[cold]
    fn decode_long(&self, r: &mut BitReader<'_>) -> Result<u32, HuffStreamError> {
        let max_len = self.max_len as u32;
        let bits = reverse_bits(r.peek_bits(max_len), max_len);
        for l in self.table_bits + 1..=self.max_len {
            let offset = (bits >> (self.max_len - l)).wrapping_sub(self.first_code[l]);
            if offset < self.count[l] {
                r.consume(l as u32).map_err(|_| HuffStreamError::BadStream)?;
                return Ok(self.order[(self.first_index[l] + offset) as usize]);
            }
        }
        Err(HuffStreamError::BadStream)
    }

    /// Reference decoder: one bit per step, the way the stream format is
    /// specified. The table decoder must return exactly what this does.
    #[cfg(test)]
    fn decode_bitwise(&self, r: &mut BitReader<'_>) -> Option<u32> {
        let mut code = 0u32;
        for l in 1..=self.max_len {
            code = (code << 1) | r.read_bits(1).ok()?;
            if self.count[l] > 0 {
                let offset = code.wrapping_sub(self.first_code[l]);
                if offset < self.count[l] {
                    return Some(self.order[(self.first_index[l] + offset) as usize]);
                }
            }
        }
        None
    }

    #[cfg(test)]
    fn decode_all_bitwise(&self, payload: &[u8], n: usize) -> Result<Vec<u32>, HuffStreamError> {
        let mut r = BitReader::new(payload);
        (0..n).map(|_| self.decode_bitwise(&mut r).ok_or(HuffStreamError::BadStream)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small() {
        let syms = vec![5u32, 5, 5, 7, 7, 100, 5, 7, 5];
        assert_eq!(decode(&encode(&syms)).unwrap(), syms);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn roundtrip_single_symbol() {
        let syms = vec![42u32; 1000];
        let blob = encode(&syms);
        // Single-symbol streams should be tiny (no payload bits).
        assert!(blob.len() < 32, "blob is {} bytes", blob.len());
        assert_eq!(decode(&blob).unwrap(), syms);
    }

    #[test]
    fn roundtrip_wide_alphabet() {
        // Alphabet spread across the u32 range, zipf-ish frequencies.
        let mut syms = Vec::new();
        for i in 0..2000u32 {
            let s = i.wrapping_mul(i).wrapping_mul(2_654_435_761) % 500_000;
            let reps = 1 + (i % 7) as usize;
            syms.extend(std::iter::repeat_n(s, reps));
        }
        assert_eq!(decode(&encode(&syms)).unwrap(), syms);
    }

    #[test]
    fn roundtrip_gaussian_like_quant_codes() {
        // Typical quantizer output: codes clustered around the radius.
        let radius = 32_768u32;
        let mut syms = Vec::new();
        let mut x = 88172645463325252u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Sum of 4 nibbles approximates a narrow distribution.
            let jitter =
                ((x & 0xF) + ((x >> 4) & 0xF) + ((x >> 8) & 0xF) + ((x >> 12) & 0xF)) as i64 - 30;
            syms.push((radius as i64 + jitter) as u32);
        }
        let blob = encode(&syms);
        // Entropy ~4-5 bits/symbol: expect real compression vs 4 bytes/sym.
        assert!(blob.len() < syms.len() * 2);
        assert_eq!(decode(&blob).unwrap(), syms);
    }

    #[test]
    fn garbage_input_does_not_panic() {
        for n in 0..64 {
            let junk: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let _ = decode(&junk);
        }
    }

    #[test]
    fn truncated_payload_detected() {
        let syms: Vec<u32> = (0..100).map(|i| i % 9).collect();
        let blob = encode(&syms);
        assert!(decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn symbol_limit_enforced() {
        let syms: Vec<u32> = (0..200).map(|i| i % 5).collect();
        let blob = encode(&syms);
        assert_eq!(decode_with_limit(&blob, 200).unwrap(), syms);
        assert_eq!(decode_with_limit(&blob, 199), Err(HuffStreamError::LimitExceeded(199)));
    }

    #[test]
    fn single_symbol_bomb_rejected_before_allocation() {
        // A ~10-byte blob declaring 2^40 copies of one symbol: the limited
        // decode must reject it without materializing the vector.
        let mut blob = Vec::new();
        crate::varint::put_uvarint(&mut blob, 1u64 << 40); // n
        crate::varint::put_uvarint(&mut blob, 1); // k
        crate::varint::put_uvarint(&mut blob, 7); // the symbol
        blob.push(1); // its code length
        crate::varint::put_uvarint(&mut blob, 0); // payload_len
        assert_eq!(decode_with_limit(&blob, 1 << 20), Err(HuffStreamError::LimitExceeded(1 << 20)));
    }

    #[test]
    fn absurd_alphabet_rejected_before_allocation() {
        // k far larger than the blob itself cannot be a valid symbol table.
        let mut blob = Vec::new();
        crate::varint::put_uvarint(&mut blob, 100); // n
        crate::varint::put_uvarint(&mut blob, 1u64 << 50); // k
        assert_eq!(decode(&blob), Err(HuffStreamError::BadHeader));
    }

    #[test]
    fn count_outrunning_payload_rejected() {
        // Multi-symbol stream whose declared count cannot fit in the
        // payload bits: reject before reserving the output vector.
        let syms = vec![1u32, 2, 1, 2, 1];
        let blob = encode(&syms);
        let mut i = 0usize;
        let n = crate::varint::get_uvarint(&blob, &mut i).unwrap();
        assert_eq!(n, 5);
        // Re-write the count as an absurd value, keeping the rest.
        let mut bad = Vec::new();
        crate::varint::put_uvarint(&mut bad, 1u64 << 45);
        bad.extend_from_slice(&blob[i..]);
        assert_eq!(decode(&bad), Err(HuffStreamError::BadStream));
    }

    /// Small deterministic PRNG for the seeded decoder tests.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Lengths of a complete prefix code with `k` codes, none longer than
    /// `max_len`: grow a binary tree by splitting leaves. `deep_pct`% of
    /// splits take the newest leaf, which stretches a long chain of codes.
    fn complete_lengths(rng: &mut XorShift, k: usize, max_len: u8, deep_pct: usize) -> Vec<u8> {
        let k = k.min(1 << max_len.min(20));
        let mut leaves = vec![0u8];
        while leaves.len() < k {
            let mut i =
                if rng.below(100) < deep_pct { leaves.len() - 1 } else { rng.below(leaves.len()) };
            while leaves[i] >= max_len {
                i = rng.below(leaves.len());
            }
            leaves[i] += 1;
            let d = leaves[i];
            leaves.push(d);
        }
        // Canonical order ties on dense index, so shuffle which index
        // gets which length.
        for i in (1..leaves.len()).rev() {
            leaves.swap(i, rng.below(i + 1));
        }
        leaves
    }

    /// Encode dense indexes with the canonical code of `lengths`.
    fn encode_payload(lengths: &[u8], dense: &[usize]) -> Vec<u8> {
        let codes = canonical_codes(lengths);
        let mut w = BitWriter::new();
        for &d in dense {
            let len = lengths[d] as u32;
            w.write_bits(reverse_bits(codes[d], len) as u64, len);
        }
        w.finish()
    }

    #[test]
    fn table_decoder_matches_bitwise_reference() {
        let mut rng = XorShift(0x5EED_C0DE_0F5E);
        let mut sets: Vec<Vec<u8>> = Vec::new();
        // Staircases 1, 2, ..., L-1, L, L: complete, max_len exactly L.
        for max_len in 1..=MAX_LEN as u8 {
            let mut stair: Vec<u8> = (1..max_len).collect();
            stair.extend([max_len, max_len]);
            sets.push(stair);
        }
        // Random trees over every cap, small to ~30k-symbol alphabets,
        // balanced and chain-heavy.
        for max_len in 1..=MAX_LEN as u8 {
            let k = 2 + rng.below(64);
            sets.push(complete_lengths(&mut rng, k, max_len, 30));
        }
        for (k, max_len, deep) in [
            (300, 12, 0),
            (2_000, 19, 10),
            (5_000, 15, 0),
            (9_000, 27, 5),
            (16_384, 14, 0),
            (30_000, 21, 2),
            (30_000, 27, 20),
        ] {
            sets.push(complete_lengths(&mut rng, k, max_len, deep));
        }
        // Under-subscribed variants: lengthen some codes, drop others.
        let complete = sets.len();
        for i in (0..complete).step_by(3) {
            let mut under = sets[i].clone();
            for _ in 0..1 + under.len() / 8 {
                let j = rng.below(under.len());
                if under[j] > 0 && (under[j] as usize) < MAX_LEN {
                    under[j] += 1;
                }
            }
            if under.len() > 2 {
                let j = rng.below(under.len());
                under[j] = 0;
            }
            if under.iter().filter(|&&l| l > 0).count() >= 2 {
                sets.push(under);
            }
        }

        let (mut cases, mut long_codes) = (0usize, 0usize);
        for lengths in &sets {
            let symbols: Vec<u32> = (0..lengths.len() as u32).map(|i| i * 7 + 3).collect();
            let assigned: Vec<usize> = (0..lengths.len()).filter(|&d| lengths[d] > 0).collect();
            let mut by_len = assigned.clone();
            by_len.sort_by_key(|&d| lengths[d]);
            // Half uniform over the alphabet (mostly long codes), half
            // from the shortest codes (the table's side).
            let dense: Vec<usize> = (0..1_500)
                .map(|_| {
                    if rng.below(2) == 0 {
                        assigned[rng.below(assigned.len())]
                    } else {
                        by_len[rng.below(by_len.len().min(8))]
                    }
                })
                .collect();
            let expect: Vec<u32> = dense.iter().map(|&d| symbols[d]).collect();
            let payload = encode_payload(lengths, &dense);
            let mut inputs: Vec<(Vec<u8>, usize)> = vec![
                (payload.clone(), dense.len()),
                (payload.clone(), dense.len() + 1 + rng.below(40)),
                (Vec::new(), 3),
            ];
            for _ in 0..4 {
                inputs.push((payload[..rng.below(payload.len())].to_vec(), dense.len()));
            }
            for _ in 0..6 {
                let mut flipped = payload.clone();
                for _ in 0..1 + rng.below(3) {
                    let bit = rng.below(flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                inputs.push((flipped, dense.len()));
            }
            let garbage: Vec<u8> = (0..payload.len()).map(|_| rng.next() as u8).collect();
            inputs.push((garbage, dense.len()));

            // The declared count sizes the table: a small count keeps it
            // at the minimum, a large one lets it widen to the cap.
            for declared in [dense.len(), 1 << 20] {
                let dec = CanonicalDecoder::new(lengths, &symbols, declared).unwrap();
                assert!(dec.table_bits <= dec.max_len.max(TABLE_MIN_BITS));
                long_codes +=
                    dense.iter().filter(|&&d| lengths[d] as usize > dec.table_bits).count();
                assert_eq!(
                    dec.decode_all(&payload, dense.len()),
                    Ok(expect.clone()),
                    "{lengths:?}"
                );
                for (input, n) in &inputs {
                    assert_eq!(
                        dec.decode_all(input, *n),
                        dec.decode_all_bitwise(input, *n),
                        "lengths {lengths:?}, {} payload bytes, n {n}",
                        input.len()
                    );
                    cases += 1;
                }
            }
        }
        assert!(cases > 1_000, "{cases} cases");
        assert!(long_codes > 10_000, "only {long_codes} symbols took the long-code path");
    }

    #[test]
    fn table_width_follows_coverage_and_caps() {
        let symbols: Vec<u32> = (0..1 << 16).collect();
        // Short codes already cover the space at the minimum width.
        let stair: Vec<u8> = (1..=20u8).chain([20]).collect();
        let dec = CanonicalDecoder::new(&stair, &symbols, 1 << 20).unwrap();
        assert_eq!(dec.table_bits, TABLE_MIN_BITS);
        // A flat 14-bit code widens to cover it all.
        let flat = vec![14u8; 1 << 14];
        let dec = CanonicalDecoder::new(&flat, &symbols, 1 << 20).unwrap();
        assert_eq!(dec.table_bits, 14);
        // ... but not past the stream's symbol count,
        let dec = CanonicalDecoder::new(&flat, &symbols, 4096).unwrap();
        assert_eq!(dec.table.len(), 4096);
        // ... nor past the global cap.
        let flat = vec![18u8; 1 << 16];
        let dec = CanonicalDecoder::new(&flat, &symbols, 1 << 20).unwrap();
        assert_eq!(dec.table_bits, TABLE_MAX_BITS);
        // Tiny codes get tiny tables.
        let dec = CanonicalDecoder::new(&[1, 2, 2], &symbols, 1 << 20).unwrap();
        assert_eq!(dec.table.len(), 4);
    }

    #[test]
    fn oversubscribed_lengths_are_rejected() {
        assert!(CanonicalDecoder::new(&[1, 1, 1], &[0, 1, 2], 10).is_none());
        assert!(CanonicalDecoder::new(&[0, 0], &[0, 1], 10).is_none());
        assert!(CanonicalDecoder::new(&[28, 1], &[0, 1], 10).is_none());
    }

    #[test]
    fn long_code_truncated_inside_the_peek_is_rejected() {
        // A 20-bit code whose last bits are missing: the peek pads with
        // zeros and may match, but consuming must fail.
        let lengths: Vec<u8> = (1..20u8).chain([20, 20]).collect();
        let payload = encode_payload(&lengths, &[20]);
        assert_eq!(payload.len(), 3);
        let symbols: Vec<u32> = (0..lengths.len() as u32).collect();
        let dec = CanonicalDecoder::new(&lengths, &symbols, 1 << 20).unwrap();
        assert_eq!(dec.decode_all(&payload, 1), Ok(vec![20]));
        assert_eq!(dec.decode_all(&payload[..2], 1), Err(HuffStreamError::BadStream));
    }

    #[test]
    fn densify_matches_the_sorted_alphabet() {
        let sorted = |syms: &[u32]| {
            let mut distinct = syms.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let dense: Vec<u32> =
                syms.iter().map(|s| distinct.binary_search(s).unwrap() as u32).collect();
            (distinct, dense)
        };
        // A narrow span takes the slot table, a wide one the sort.
        let near: Vec<u32> = (0..5_000u32).map(|i| 100 + (i * i) % 997).collect();
        let far: Vec<u32> = near.iter().map(|&s| s.wrapping_mul(2_654_435_761)).collect();
        for syms in [near, far, Vec::new(), vec![u32::MAX, 0, u32::MAX]] {
            assert_eq!(densify(&syms), sorted(&syms));
        }
    }
}
