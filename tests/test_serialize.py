import numpy as np
import pytest

from brwlab.core import BrwModel, ModelError, continuous_counterpart
from brwlab.scenarios import build_scenario
from brwlab.serialize import model_hash, parse_model, serialize_model
from brwlab.spectral import moment_matrix


class TestRoundTrip:
    @pytest.mark.parametrize("name,params", [
        ("gw", {"rho": {0: 0.4, 2: 0.6}}),
        ("line_noext", {"size": 6}),
        ("line_ex45", {"size": 12}),
        ("zd_translation", {"radius": 4}),
        ("zdrift", {"radius": 3, "p": 0.3, "q": 0.2}),
    ])
    def test_laws_survive_round_trip(self, name, params):
        m = build_scenario(name, params)
        back = parse_model(serialize_model(m))
        assert back.vertices == m.vertices
        for v in m.vertices:
            assert back.laws[v].equal_within(m.laws[v])

    @pytest.mark.parametrize("model", [
        build_scenario("tree_counterpart", {"depth": 2}),
        BrwModel((0, 1, 2), {0: continuous_counterpart(0.7, {1: 1.0, 2: 2.5}),
                             1: continuous_counterpart(0.7, {0: 3.0}),
                             2: continuous_counterpart(0.7, {0: 0.2, 1: 0.1, 2: 1.0})}),
    ], ids=["tree_counterpart", "continuous_counterpart"])
    def test_geometric_laws_keep_their_bytes(self, model):
        text = serialize_model(model)
        back = parse_model(text)
        assert serialize_model(back) == text
        assert model_hash(back) == model_hash(model)

    def test_round_trip_preserves_means(self):
        m = build_scenario("zd_translation", {"radius": 5})
        back = parse_model(serialize_model(m))
        a, b = moment_matrix(m), moment_matrix(back)
        assert np.allclose(a.csr.toarray(), b.csr.toarray(), atol=1e-14)


class TestHash:
    def test_stable_across_builds(self):
        a = build_scenario("zd_translation", {"radius": 5})
        b = build_scenario("zd_translation", {"radius": 5})
        assert model_hash(a) == model_hash(b)

    def test_sensitive_to_parameters(self):
        a = build_scenario("zd_translation", {"radius": 5})
        b = build_scenario("zd_translation", {"radius": 5, "rho": {0: 0.3, 2: 0.7}})
        assert model_hash(a) != model_hash(b)

    def test_header_records_scenario(self):
        m = build_scenario("line_noext", {"size": 5})
        text = serialize_model(m)
        assert text.splitlines()[1] == "scenario line_noext"

    def test_bad_text_rejected(self):
        with pytest.raises(ModelError):
            parse_model("not a model\n")


def _drop_line(text, start):
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(start))
    return "\n".join(lines[:i] + lines[i + 1:]) + "\n"


GW_TEXT = serialize_model(build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}}))
LINE_TEXT = serialize_model(build_scenario("line_noext", {"size": 3}))


class TestMalformedText:
    @pytest.mark.parametrize("text", [
        "\n".join(GW_TEXT.splitlines()[:2]) + "\n",
        "\n".join(GW_TEXT.splitlines()[:3]) + "\n",
        _drop_line(GW_TEXT, "rho "),
        _drop_line(GW_TEXT, "disp "),
        "\n".join(GW_TEXT.splitlines()[:5]) + "\n",
        _drop_line(LINE_TEXT, "atom "),
        "\n".join(LINE_TEXT.splitlines()[:-1]) + "\n",
        GW_TEXT.replace("params {", "params {x"),
        GW_TEXT.replace("params {\"rho_mean\": 1.2}", "params [1]"),
        GW_TEXT.replace("vertices 0", "vertices zero"),
    ], ids=["no-params", "no-vertices", "no-rho", "no-disp", "law-at-end", "atom-missing",
            "last-atom-missing", "bad-json", "params-not-object", "bad-vertex"])
    def test_raises_model_error(self, text):
        assert text != GW_TEXT
        with pytest.raises(ModelError):
            parse_model(text)
