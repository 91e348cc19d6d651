//! Quintic Hermite tables of smooth radial functions: one quintic per
//! evaluation instead of the `erf` and `exp`s of a closed form.

use crate::simd::Lane;

/// A smooth function on `[x0, x0 + (n - 1) h]` through `n` uniform nodes,
/// each holding `[v, v' h, v'' h^2]`. Between two nodes it is the one quintic
/// that matches all six; [`HermiteTable::eval`] returns that quintic and its
/// exact derivative, so a force taken from the slope is the gradient of the
/// energy taken from the value. A table may hold several such functions, its
/// pieces ([`HermiteTable::join`]), one node array behind them all, so that
/// each lane of a vector can read its own ([`HermiteTable::eval_on`]).
#[derive(Clone, Debug)]
pub struct HermiteTable {
    /// Per piece `[x0, nodes per unit, the offset of its first node in
    /// nodes, its last interval]`.
    heads: Vec<f64>,
    /// `[v, v' h, v'' h^2]` per node, piece after piece.
    nodes: Vec<f64>,
}

impl HermiteTable {
    /// Tabulates `f(x) = [v, v', v'']` at `x0 + k / per_unit` for every node
    /// from `x0` to `x1`: one piece.
    pub fn new(x0: f64, x1: f64, per_unit: f64, f: impl Fn(f64) -> [f64; 3]) -> Self {
        let h = 1.0 / per_unit;
        let last = ((x1 - x0) * per_unit).round() as usize;
        let nodes: Vec<f64> = (0..=last.max(1))
            .flat_map(|k| {
                let [v, d, s] = f(x0 + k as f64 * h);
                [v, d * h, s * h * h]
            })
            .collect();
        let intervals = (nodes.len() / 3 - 1) as f64;
        Self {
            heads: vec![x0, per_unit, 0.0, intervals - 1.0],
            nodes,
        }
    }

    /// The pieces of `tables` in one table, in order.
    pub fn join(tables: &[&HermiteTable]) -> Self {
        let (mut heads, mut nodes) = (vec![], vec![]);
        for t in tables {
            for h in t.heads.chunks_exact(4) {
                heads.extend([h[0], h[1], h[2] + nodes.len() as f64, h[3]]);
            }
            nodes.extend(&t.nodes);
        }
        Self { heads, nodes }
    }

    /// The interpolant of the first piece and its derivative `(v, dv/dx)`
    /// at `x`. Inside the nodes' range only: outside, the end interval's
    /// quintic is extrapolated.
    #[inline(always)]
    pub fn eval<V: Lane>(&self, x: V) -> (V, V) {
        self.eval_on(V::splat(0.0), x)
    }

    /// [`HermiteTable::eval`] of the piece `piece` (a whole number), lane by
    /// lane.
    #[inline(always)]
    pub fn eval_on<V: Lane>(&self, piece: V, x: V) -> (V, V) {
        let (c, h, at) = (V::splat, &self.heads[..], V::splat(4.0) * piece);
        let ((x0, per_unit), (first, kmax)) = (two(h, at, 0.0), two(h, at, 2.0));
        let u = (x - x0) * per_unit;
        // The interval `u` falls in, clamped to the piece's: `u as usize`
        // (negative to 0) at most `kmax`, from `u`'s floor.
        let k = u.round();
        let k = k.select_le(u, k, k - c(1.0));
        let k = k.select_le(kmax, k, kmax);
        let k = k.select_le(c(0.0), c(0.0), k);
        let (t, at, n) = (u - k, first + c(3.0) * k, &self.nodes[..]);
        let ((v0, d0), (s0, v1), (d1, s1)) = (two(n, at, 0.0), two(n, at, 2.0), two(n, at, 4.0));
        // p(t) = v0 + d0 t + s0 t^2 / 2 + c3 t^3 + c4 t^4 + c5 t^5 with
        // p, p', p'' at t = 1 equal to v1, d1, s1.
        let dv = v1 - v0;
        let c2 = c(0.5) * s0;
        let c3 = c(10.0) * dv - c(6.0) * d0 - c(4.0) * d1 - c(1.5) * s0 + c(0.5) * s1;
        let c4 = c(-15.0) * dv + c(8.0) * d0 + c(7.0) * d1 + c(1.5) * s0 - s1;
        let c5 = c(6.0) * dv - c(3.0) * (d0 + d1) - c(0.5) * (s0 - s1);
        let v = v0 + t * (d0 + t * (c2 + t * (c3 + t * (c4 + t * c5))));
        let dt = d0 + t * (c(2.0) * c2 + t * (c(3.0) * c3 + t * (c(4.0) * c4 + t * c(5.0) * c5)));
        (v, dt * per_unit)
    }
}

/// `(table[at + i], table[at + i + 1])`, lane by lane. A helper over lanes
/// is an `#[inline(always)]` fn, never a closure, which may be left out of
/// line.
#[inline(always)]
fn two<V: Lane>(table: &[f64], at: V, i: f64) -> (V, V) {
    let c = V::splat;
    (
        V::gather(table, at + c(i)),
        V::gather(table, at + c(i + 1.0)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quintic_is_reproduced_and_exp_to_h6() {
        let p = |x: f64| {
            [
                x.powi(5) - 3.0 * x * x,
                5.0 * x.powi(4) - 6.0 * x,
                20.0 * x.powi(3) - 6.0,
            ]
        };
        let (t, e) = (
            HermiteTable::new(-1.0, 2.0, 4.0, p),
            HermiteTable::new(0.0, 1.0, 16.0, |x| [x.exp(); 3]),
        );
        for x in (0..=300).map(|i| -1.0 + 0.01 * i as f64) {
            let ((v, d), [v0, d0, _]) = (t.eval(x), p(x));
            assert!((v - v0).abs() < 1e-13 && (d - d0).abs() < 1e-12, "x = {x}");
            let ((v, d), y) = (e.eval((x + 1.0) / 3.0), ((x + 1.0) / 3.0).exp());
            assert!((v - y).abs() < 1e-11 && (d - y).abs() < 1e-9, "x = {x}");
        }
    }
}
