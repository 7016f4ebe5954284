//! Cartesian process topologies (`MPI_Cart_create` and friends).
//!
//! Stencil applications — the dominant shape in the paper's application
//! tier — address neighbours by grid coordinates, not ranks. This module
//! provides the MPI topology calls those codes use: balanced dimension
//! factorization (`MPI_Dims_create`), Cartesian communicators with optional
//! periodicity, rank↔coordinate translation, and neighbour shifts.

use crate::comm::Comm;
use crate::proc::Proc;

/// A Cartesian view over a communicator.
#[derive(Debug, Clone)]
pub struct CartComm {
    comm: Comm,
    dims: Vec<usize>,
    periodic: Vec<bool>,
}

/// Factor `nnodes` into `ndims` balanced dimensions (`MPI_Dims_create`):
/// dimensions are as close to equal as possible, in non-increasing order.
pub fn dims_create(nnodes: usize, ndims: usize) -> Vec<usize> {
    assert!(nnodes > 0, "need at least one node");
    assert!(ndims > 0, "need at least one dimension");
    let mut dims = vec![1usize; ndims];
    let mut remaining = nnodes;
    // Repeatedly peel the largest prime factor onto the smallest dimension.
    let mut factors = Vec::new();
    let mut f = 2;
    while f * f <= remaining {
        while remaining.is_multiple_of(f) {
            factors.push(f);
            remaining /= f;
        }
        f += 1;
    }
    if remaining > 1 {
        factors.push(remaining);
    }
    for factor in factors.into_iter().rev() {
        let min = dims
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| **d)
            .map(|(i, _)| i)
            .expect("ndims > 0");
        dims[min] *= factor;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

impl CartComm {
    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This process's grid coordinates (`MPI_Cart_coords` of own rank).
    pub fn coords(&self) -> Vec<usize> {
        self.coords_of(self.comm.rank())
    }

    /// Coordinates of any communicator rank (row-major, like MPI).
    fn coords_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.comm.size(), "rank out of range");
        let mut rest = rank;
        let mut coords = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            coords[i] = rest % d;
            rest /= d;
        }
        coords
    }

    /// Rank of grid coordinates (`MPI_Cart_rank`). Out-of-range coordinates
    /// wrap in periodic dimensions and return `None` otherwise.
    fn rank_of(&self, coords: &[isize]) -> Option<usize> {
        assert_eq!(coords.len(), self.dims.len(), "one coordinate per dim");
        let mut rank = 0usize;
        for (i, (&c, &d)) in coords.iter().zip(&self.dims).enumerate() {
            let d = d as isize;
            let c = if self.periodic[i] {
                c.rem_euclid(d)
            } else if (0..d).contains(&c) {
                c
            } else {
                return None;
            };
            rank = rank * d as usize + c as usize;
        }
        Some(rank)
    }

    /// `MPI_Cart_shift`: the `(source, destination)` ranks for a shift of
    /// `disp` along `dim`. `None` marks an off-grid neighbour
    /// (`MPI_PROC_NULL`) in a non-periodic dimension.
    pub fn shift(&self, dim: usize, disp: isize) -> (Option<usize>, Option<usize>) {
        assert!(dim < self.dims.len(), "dimension out of range");
        let me: Vec<isize> = self.coords().iter().map(|&c| c as isize).collect();
        let mut dest = me.clone();
        dest[dim] += disp;
        let mut src = me;
        src[dim] -= disp;
        (self.rank_of(&src), self.rank_of(&dest))
    }
}

impl Proc {
    /// `MPI_Cart_create`: impose a Cartesian topology on `comm`. The grid
    /// must exactly cover the communicator. Rank order is preserved
    /// (`reorder = false`), so the returned view shares `comm`'s matching
    /// space via a duplicate.
    pub fn cart_create(&mut self, comm: &Comm, dims: &[usize], periodic: &[bool]) -> CartComm {
        assert_eq!(dims.len(), periodic.len(), "one periodicity flag per dim");
        assert_eq!(
            dims.iter().product::<usize>(),
            comm.size(),
            "grid must cover the communicator exactly"
        );
        let dup = self.comm_dup(comm);
        CartComm {
            comm: dup,
            dims: dims.to_vec(),
            periodic: periodic.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use ats_runtime::{MachineModel, VDur};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn dims_create_balances() {
        assert_eq!(dims_create(12, 2), vec![4, 3]);
        assert_eq!(dims_create(16, 2), vec![4, 4]);
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(7, 2), vec![7, 1]);
        assert_eq!(dims_create(1, 2), vec![1, 1]);
        assert_eq!(dims_create(30, 2), vec![6, 5]);
    }

    #[test]
    fn coords_roundtrip_row_major() {
        crate::run(cfg(6), |p| {
            let world = p.comm_world();
            let cart = p.cart_create(&world, &[2, 3], &[false, false]);
            let coords = cart.coords();
            // Row-major: rank = x*3 + y.
            assert_eq!(p.rank(), coords[0] * 3 + coords[1]);
            let back = cart.rank_of(&[coords[0] as isize, coords[1] as isize]);
            assert_eq!(back, Some(p.rank()));
        });
    }

    #[test]
    fn shift_nonperiodic_has_null_edges() {
        crate::run(cfg(4), |p| {
            let world = p.comm_world();
            let cart = p.cart_create(&world, &[4], &[false]);
            let (src, dst) = cart.shift(0, 1);
            match p.rank() {
                0 => {
                    assert_eq!(src, None, "nothing to my left");
                    assert_eq!(dst, Some(1));
                }
                3 => {
                    assert_eq!(src, Some(2));
                    assert_eq!(dst, None, "nothing to my right");
                }
                r => {
                    assert_eq!(src, Some(r - 1));
                    assert_eq!(dst, Some(r + 1));
                }
            }
        });
    }

    #[test]
    fn shift_periodic_wraps() {
        crate::run(cfg(4), |p| {
            let world = p.comm_world();
            let cart = p.cart_create(&world, &[4], &[true]);
            let (src, dst) = cart.shift(0, 1);
            assert_eq!(src, Some((p.rank() + 3) % 4));
            assert_eq!(dst, Some((p.rank() + 1) % 4));
        });
    }

    #[test]
    fn cart_comm_carries_real_traffic() {
        // 2x2 torus: exchange along dimension 0.
        crate::run(cfg(4), |p| {
            let world = p.comm_world();
            let cart = p.cart_create(&world, &[2, 2], &[true, true]);
            let (src, dst) = cart.shift(0, 1);
            let comm = cart.comm().clone();
            let mut req = p.isend(&[p.rank() as u8], dst.unwrap(), 5, &comm);
            let (data, _) = p.recv(src.unwrap(), 5, &comm);
            p.wait(&mut req);
            assert_eq!(data, vec![src.unwrap() as u8]);
        });
    }

    #[test]
    #[should_panic(expected = "grid must cover")]
    fn wrong_grid_size_panics() {
        crate::run(cfg(4), |p| {
            let world = p.comm_world();
            let _ = p.cart_create(&world, &[3], &[false]);
        });
    }

    #[test]
    fn two_d_shift_both_dimensions() {
        crate::run(cfg(6), |p| {
            let world = p.comm_world();
            let cart = p.cart_create(&world, &[2, 3], &[true, true]);
            let c = cart.coords();
            let (_, down) = cart.shift(0, 1);
            let (_, right) = cart.shift(1, 1);
            assert_eq!(
                cart.coords_of(down.unwrap()),
                vec![(c[0] + 1) % 2, c[1]],
                "dim-0 neighbour"
            );
            assert_eq!(
                cart.coords_of(right.unwrap()),
                vec![c[0], (c[1] + 1) % 3],
                "dim-1 neighbour"
            );
        });
    }
}
