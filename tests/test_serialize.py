from brwlab.scenarios import build_scenario
from brwlab.serialize import model_hash, serialize_model


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
