"""The compiled law table against per-law references.

The moment matrix, G, G' and the sampler all read ``core.law_table``.  The
references here compile each law on its own, the way each reader did before
the table existed, and the table's readers must match them byte for byte.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from brwlab.core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    OffspringLaw,
    ProductForm,
    build_offspring_law,
    law_table,
    product_form_law,
)
from brwlab.genfun import _evaluator, as_field, eval_G
from brwlab.scenarios import SCENARIOS, build_scenario
from brwlab.simulate import _AtomGroup, _sampler
from brwlab.spectral import MomentMatrix, moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def atom_model():
    laws = {0: law_from([({0: 2, 1: 1}, 0.3), ({2: 3}, 0.2), ({1: 1}, 0.1), ({}, 0.4)]),
            1: law_from([({0: 1, 1: 1, 2: 2}, 0.5), ({1: 2}, 0.25), ({}, 0.25)]),
            2: law_from([({2: 1}, 1.0)])}
    return BrwModel((0, 1, 2), laws)


def mixed_model():
    """Two product laws alternating on a 9-cycle and an atom law at vertex 4."""
    rho = IntDistribution.from_dict({0: 0.3, 1: 0.3, 3: 0.4})
    laws = {}
    for x in range(9):
        if x == 4:
            laws[x] = law_from([({3: 1, 5: 1}, 0.3), ({4: 2}, 0.2), ({}, 0.25),
                                ({0: 1, 8: 2}, 0.25)])
        elif x % 2:
            laws[x] = product_form_law({0: 0.25, 2: 0.75}, {x - 1: 0.25, x: 0.5, x + 1: 0.25})
        else:
            laws[x] = product_form_law(rho, {(x - 1) % 9: 0.5, (x + 1) % 9: 0.5})
    return BrwModel(tuple(range(9)), laws)


def edge_model():
    """A product row of mean 0, one with a zero dispersal weight, a pure death."""
    laws = {0: product_form_law({0: 1.0}, {1: 1.0}),
            1: OffspringLaw(product=ProductForm(IntDistribution.from_dict({1: 0.5, 2: 0.5}),
                                                (0, 2), (0.0, 1.0))),
            2: law_from([({}, 1.0)])}
    return BrwModel((0, 1, 2), laws)


MODELS = {name: (lambda name=name: build_scenario(name)) for name in sorted(SCENARIOS)}
MODELS.update(atom_model=atom_model, mixed_model=mixed_model, edge_model=edge_model)


def reference_mean_rows(model):
    """m_xy per law: rho_bar * weight on product rows, summed p * count on atom rows."""
    rows = {}
    for v in model.vertices:
        law = model.laws[v]
        if law.product is not None:
            rb = law.rho.mean
            rows[v] = {t: rb * w for t, w in zip(law.product.targets, law.product.weights) if w > 0}
        else:
            row = {}
            for cfg, p in law.atoms:
                for u, c in cfg.entries:
                    row[u] = row.get(u, 0.0) + p * c
            rows[v] = row
    return rows


def reference_G(model, z):
    """G(z) compiled law by law: product rows through a dispersal matrix built
    from coordinates, atom rows by a scalar loop over each law's atoms."""
    r, c, d = [], [], []
    for v in model.vertices:
        pf = model.laws[v].product
        if pf is not None:
            r += [model.index[v]] * len(pf.targets)
            c += [model.index[t] for t in pf.targets]
            d += pf.weights
    pz = csr_matrix((d, (r, c)), shape=(model.size, model.size)).dot(z)
    out = np.empty_like(z)
    for v in model.vertices:
        i, law = model.index[v], model.laws[v]
        if law.product is not None:
            out[i] = np.polynomial.polynomial.polyval(pz[i:i + 1], law.rho.dense_probs())[0]
            continue
        total = 0.0
        for cfg, p in law.atoms:
            idx = np.array([model.index[u] for u, _ in cfg.entries], dtype=np.int64)
            cnt = np.array([k for _, k in cfg.entries], dtype=float)
            zi = z[idx]
            if np.all(zi > 0.0):
                total += p * math.exp(float(np.dot(cnt, np.log(zi))))
            else:
                total += p * float(np.prod(np.where(zi > 0.0, zi, 0.0) ** cnt))
        out[i] = total
    return np.clip(out, 0.0, 1.0)


def reference_sampler(model):
    """Draw groups law by law: product laws keyed on (id(rho), weights), one
    group per atom vertex with a dense (atoms x reached vertices) table."""
    product, groups = {}, []
    for v in model.vertices:
        i, law = model.index[v], model.laws[v]
        if law.product is not None:
            pf = law.product
            product.setdefault((id(pf.rho), pf.weights), (pf.rho, pf.weights, []))[2].append(
                (i, [model.index[t] for t in pf.targets]))
        else:
            atoms = law.atoms
            targets = sorted({model.index[u] for cfg, _ in atoms for u, _ in cfg.entries})
            cfg = np.zeros((len(atoms), len(targets)), dtype=np.int64)
            for a, (c, _) in enumerate(atoms):
                for u, k in c.entries:
                    cfg[a, targets.index(model.index[u])] = k
            groups.append((i, [np.array([i]), np.cumsum([p for _, p in atoms]),
                               np.array([targets], dtype=np.int64), cfg]))
    for rho, weights, members in product.values():
        groups.append((members[0][0], [np.array([i for i, _ in members]), np.cumsum(rho.probs),
                                       rho.values, np.cumsum(weights),
                                       np.array([t for _, t in members], dtype=np.int64)]))
    return [arrays for _, arrays in sorted(groups, key=lambda g: g[0])]


def random_fields(size, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, (4, size))
    z[1:][rng.random((3, size)) < 0.3] = 0.0
    z[2:][rng.random((2, size)) < 0.3] = 1.0
    z[3] = rng.random(size) < 0.5
    return z


def _csr_bytes(m):
    return m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
class TestTableReaders:
    def test_moment_matrix_equals_the_per_law_mean_rows(self, name):
        m = MODELS[name]()
        want = MomentMatrix.from_rows(reference_mean_rows(m), m.vertices).csr
        assert _csr_bytes(moment_matrix(m).csr) == _csr_bytes(want)

    def test_G_equals_the_scalar_atom_loop(self, name):
        m = MODELS[name]()
        for z in random_fields(m.size, 11):
            assert eval_G(m, z).tobytes() == reference_G(m, z).tobytes()

    def test_sampler_equals_the_per_law_groups(self, name):
        m = MODELS[name]()
        groups, group_of, row_of = _sampler(m)
        want = reference_sampler(m)
        assert len(groups) == len(want)
        for g, (group, arrays) in enumerate(zip(groups, want)):
            got = ([group.cols, group.cdf, group.targets, group.configs]
                   if isinstance(group, _AtomGroup)
                   else [group.cols, group.rho_cdf, group.rho_values, group.w_cdf, group.targets])
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                   [(a.dtype, a.shape, a.tobytes()) for a in arrays]
            assert np.all(group_of[group.cols] == g)
            assert np.array_equal(row_of[group.cols], np.arange(group.cols.size))


def test_table_is_compiled_once_per_model():
    m = mixed_model()
    moment_matrix(m), _evaluator(m), _sampler(m)
    table = law_table(m)
    assert law_table(m) is table
    assert _evaluator(m).P is table.disp


def test_a_burst_law_compiles_without_densifying():
    # 10^7 children at once: a dense coefficient array would hold 80 MB
    burst = product_form_law({0: 0.5, 10 ** 7: 0.5}, {0: 0.25, 1: 0.75})
    m = BrwModel((0, 1), {0: burst, 1: law_from([({}, 1.0)])})
    M = moment_matrix(m)
    assert M.entry(0, 0) == 5e6 * 0.25 and M.entry(0, 1) == 5e6 * 0.75 and M.csr.nnz == 2
    groups, _, _ = _sampler(m)
    assert groups[0].rho_values.tolist() == [0, 10 ** 7]
    assert groups[0].targets.tolist() == [[0, 1]]
    with pytest.raises(ModelError, match="densify"):
        eval_G(m, 0.5)


class TestFieldValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates(self, bad):
        # the atom loop once read NaN as 0
        m = build_scenario("line_ex45", {"size": 4})
        with pytest.raises(ModelError, match="finite"):
            eval_G(m, bad)
        with pytest.raises(ModelError, match="finite"):
            as_field(m, [0.5, bad, 0.5, 0.5])
        with pytest.raises(ModelError, match="finite"):
            as_field(m, {1: bad})

    def test_dict_key_outside_the_model(self):
        m = build_scenario("line_ex45", {"size": 4})
        with pytest.raises(ModelError, match="9"):
            eval_G(m, {9: 0.5})
        assert as_field(m, {1: 0.5}).tolist() == [0.0, 0.5, 0.0, 0.0]
