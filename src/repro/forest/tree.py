"""Array-backed CART regression tree.

Construction is iterative (explicit stack) to avoid recursion limits and to
keep node bookkeeping in flat arrays; prediction descends all query rows
through the tree simultaneously, one level per vectorised step.

Growth comes in two trace-equivalent flavours selected by ``presort``:

* ``presort=True`` (default) grows the whole tree in one call into the C
  library of :mod:`repro.forest._cgrower`: each feature is argsorted *once
  per tree* and the sorted index rows are stably partitioned in place at
  every split, so each node pays only a gather and a prefix-sum sweep.
* ``presort=False`` is the reference grower: a fresh ``(n, m)`` argsort per
  node (:func:`~repro.forest.splitter.best_split`).  It is also what
  ``presort=True`` runs when the C library is unavailable.

Both consume the node RNG identically and produce bit-identical trees —
the trace-equivalence suite (``tests/test_trace_equivalence.py``) pins this.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.forest.splitter import best_split

__all__ = ["RegressionTree"]

_LEAF = -1


class RegressionTree:
    """A single regression tree (MSE criterion).

    Parameters
    ----------
    max_depth:
        Depth limit; ``None`` grows until purity / sample limits.
    min_samples_split:
        Smallest node that may be split further.
    min_samples_leaf:
        Smallest admissible child size.
    max_features:
        Features considered per split: ``None``/"all" (every feature),
        ``"sqrt"``, ``"third"`` (Breiman's regression default p/3), an int
        count, or a float fraction.
    rng:
        Generator used for per-node feature subsampling.
    presort:
        Use the C grower (one stable argsort per feature per tree,
        partitioned down the tree) instead of re-argsorting every node.
        Trace-equivalent; ``False`` keeps the reference path for tests and
        benchmarking.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = None,
        rng: np.random.Generator | None = None,
        presort: bool = True,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng()
        self.presort = presort
        self._fitted = False

    # -- configuration -----------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None or mf == "all":
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "third":
            return max(1, n_features // 3)
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction must be in (0, 1], got {mf}")
            return max(1, int(round(mf * n_features)))
        if isinstance(mf, int):
            if not 1 <= mf <= n_features:
                raise ValueError(
                    f"max_features={mf} out of range [1, {n_features}]"
                )
            return mf
        raise ValueError(f"unrecognised max_features: {mf!r}")

    # -- fitting -------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``(X, y)``; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise ValueError("X and y must be finite")

        n, d = X.shape
        m = self._n_split_features(d)
        lib = _cgrower.load() if self.presort else None
        if lib is not None:
            arrays = self._grow_c(lib, X, y, m)
        else:
            arrays = self._grow_reference(X, y, m)

        self.n_features_ = d
        (
            self.feature_,
            self.threshold_,
            self.left_,
            self.right_,
            self.value_,
            self.variance_,
            self.count_,
            self.impurity_,
        ) = arrays
        self._fitted = True
        return self

    def _grow_c(self, lib, X: np.ndarray, y: np.ndarray, m: int) -> tuple:
        """Grow the whole tree in one ``repro_grow_tree`` call.

        Python argsorts each feature once (stable, so ties keep ascending
        sample order, as the reference's per-node argsorts do) and
        preallocates node storage for the 2n - 1 nodes a tree of ``n``
        samples can have; C runs the DFS, partitioning ``order`` in place,
        and draws candidate features from ``self.rng``'s bit generator
        under its lock, exactly as ``Generator.choice`` would.
        """
        n, d = X.shape
        XT = np.ascontiguousarray(X.T)
        y = np.ascontiguousarray(y)
        order = np.empty((d + 1, n), dtype=np.intp)
        order[:d] = np.argsort(XT, axis=1, kind="stable")
        order[d] = np.arange(n)
        cap = 2 * n - 1
        ints = np.empty((4, cap), dtype=np.intp)  # feature, left, right, count
        floats = np.empty((4, cap), dtype=np.float64)  # thr, value, var, imp
        ip = ints.ctypes.data
        fp = floats.ctypes.data
        row = 8 * cap
        max_depth = -1 if self.max_depth is None else self.max_depth
        bitgen = self.rng.bit_generator
        next_u32, state = _cgrower.bitgen_pointers(self.rng) if m < d else (0, 0)
        with bitgen.lock:
            n_nodes = lib.repro_grow_tree(
                XT.ctypes.data, y.ctypes.data, n, d, m, order.ctypes.data,
                self.min_samples_leaf, self.min_samples_split, max_depth,
                next_u32, state,
                ip, fp, ip + row, ip + 2 * row,
                fp + row, fp + 2 * row, ip + 3 * row, fp + 3 * row,
            )
        if n_nodes < 0:
            raise MemoryError("tree grower could not allocate scratch memory")
        feature, left, right, count = ints[:, :n_nodes]
        threshold, value, variance, impurity = floats[:, :n_nodes]
        return feature, threshold, left, right, value, variance, count, impurity

    def _grow_reference(self, X: np.ndarray, y: np.ndarray, m: int) -> tuple:
        """Reference growth: a fresh argsort per node via :func:`best_split`.

        The test oracle for :meth:`_grow_c`, and the grower whenever the C
        library is unavailable.
        """
        n, d = X.shape
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        variance: list[float] = []
        count: list[int] = []
        impurity: list[float] = []

        def new_node() -> int:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(0.0)
            variance.append(0.0)
            count.append(0)
            impurity.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            y_node = y[idx]
            # Mean/variance/SSE from Σy and Σy², both numpy pairwise sums
            # (np.dot would go through BLAS, whose association is not
            # reproducible).
            k = len(idx)
            s = float(np.add.reduce(y_node))
            q = float(np.add.reduce(y_node * y_node))
            mean = s / k
            value[node] = mean
            variance[node] = max(q / k - mean * mean, 0.0)
            count[node] = k
            impurity[node] = max(q - s * s / k, 0.0)

            if (
                k < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or impurity[node] <= 1e-12
            ):
                continue

            if m >= d:
                feats = np.arange(d)
            else:
                feats = self.rng.choice(d, size=m, replace=False)

            split = best_split(X[idx], y_node, feats, self.min_samples_leaf)
            if split is None:
                continue
            feature[node] = split.feature
            threshold[node] = split.threshold
            li = new_node()
            ri = new_node()
            left[node] = li
            right[node] = ri
            stack.append((li, idx[split.left_mask], depth + 1))
            stack.append((ri, idx[~split.left_mask], depth + 1))

        return (
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(value, dtype=np.float64),
            np.asarray(variance, dtype=np.float64),
            np.asarray(count, dtype=np.intp),
            np.asarray(impurity, dtype=np.float64),
        )

    # -- inference ------------------------------------------------------------
    def _check_query(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("tree is not fitted; call fit() first")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"query has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        return X

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each query row."""
        X = self._check_query(X)
        node = np.zeros(len(X), dtype=np.intp)
        active = self.feature_[node] != _LEAF
        while active.any():
            act_nodes = node[active]
            go_left = (
                X[active, self.feature_[act_nodes]] <= self.threshold_[act_nodes]
            )
            nxt = np.where(go_left, self.left_[act_nodes], self.right_[act_nodes])
            node[active] = nxt
            active = self.feature_[node] != _LEAF
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean training target of the leaf each row falls into."""
        leaves = self.apply(X)
        return self.value_[leaves]

    def leaf_stats(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, variance, count) of the reached leaf for each row."""
        leaves = self.apply(X)
        return self.value_[leaves], self.variance_[leaves], self.count_[leaves]

    # -- introspection -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        self._require_fitted()
        return len(self.feature_)

    @property
    def n_leaves(self) -> int:
        self._require_fitted()
        return int((self.feature_ == _LEAF).sum())

    def depth(self) -> int:
        """Maximum root-to-leaf depth of the fitted tree."""
        self._require_fitted()
        depth = 0
        frontier = np.zeros(1, dtype=np.intp)  # start at the root
        while True:
            internal = frontier[self.feature_[frontier] != _LEAF]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                [self.left_[internal], self.right_[internal]]
            )
            depth += 1

    def impurity_importances(self) -> np.ndarray:
        """Total SSE reduction credited to each feature (unnormalised)."""
        self._require_fitted()
        imp = np.zeros(self.n_features_, dtype=np.float64)
        internal = np.flatnonzero(self.feature_ != _LEAF)
        if internal.size:
            gain = self.impurity_[internal] - (
                self.impurity_[self.left_[internal]]
                + self.impurity_[self.right_[internal]]
            )
            np.add.at(imp, self.feature_[internal], np.maximum(gain, 0.0))
        return imp

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("tree is not fitted; call fit() first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._fitted:
            return "RegressionTree(unfitted)"
        return f"RegressionTree({self.n_nodes} nodes, {self.n_leaves} leaves)"
