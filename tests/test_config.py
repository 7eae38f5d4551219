import pytest

from plucker import ConfigError, SweepConfig
from plucker.config import load_config, parse_config_file


class TestDefaults:
    def test_default_is_valid(self):
        cfg = SweepConfig().validate()
        assert cfg.k_range == (1, 3)
        assert cfg.n_range == (1, 6)
        assert cfg.primes == (2, 3)

    def test_grassmannian_iteration(self):
        cfg = SweepConfig(k_range=(2, 3), n_range=(2, 4))
        assert list(cfg.grassmannians()) == [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]


class TestValidation:
    def test_empty_range(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_range=(4, 2)).validate()

    def test_non_prime(self):
        with pytest.raises(ConfigError):
            SweepConfig(primes=(2, 4)).validate()

    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            SweepConfig(budget=0).validate()

    def test_empty_primes(self):
        with pytest.raises(ConfigError):
            SweepConfig(primes=()).validate()


class TestFileFormat:
    def test_parse(self):
        text = """
        # sweep shape
        k_range = 1:2
        n_range = 2:4
        primes = 2,5
        seed = 7
        """
        cfg = parse_config_file(text)
        assert cfg.k_range == (1, 2)
        assert cfg.n_range == (2, 4)
        assert cfg.primes == (2, 5)
        assert cfg.seed == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_file("nope = 3")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config_file("primes 2,3")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_file("seed = x")


class TestPrecedence:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("seed = 1\nprimes = 2\n")
        cfg = load_config(str(path), env={"PLUCKER_SEED": "99"})
        assert cfg.seed == 99
        assert cfg.primes == (2,)

    def test_flags_override_env(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("seed = 1\n")
        cfg = load_config(str(path), env={"PLUCKER_SEED": "99"}, overrides={"seed": "5"})
        assert cfg.seed == 5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/sweep.cfg", env={})


class TestIntegerText:
    """Every integer of a config is ASCII digits, a '-' allowed only on the seed:
    int() alone would read '+7' as 7, '1_000' as 1000 and Arabic-Indic digits."""

    @pytest.mark.parametrize("line", ["seed = +7", "budget = 1_000", "k_range = 1:٣", "primes = 2,٥"])
    def test_config_file(self, line):
        with pytest.raises(ConfigError):
            parse_config_file(line)

    @pytest.mark.parametrize("key,raw", [("k_range", "1:٣"), ("budget", "1_000"), ("rational_samples", "+5")])
    def test_override(self, key, raw):
        with pytest.raises(ConfigError):
            load_config(env={}, overrides={key: raw})

    @pytest.mark.parametrize(
        "name,raw", [("PLUCKER_SEED", "+7"), ("PLUCKER_BUDGET", "1_000"), ("PLUCKER_N_RANGE", "٢:4")]
    )
    def test_environment(self, name, raw):
        with pytest.raises(ConfigError):
            load_config(env={name: raw})

    def test_plain_digits_and_a_negative_seed_still_read(self):
        cfg = load_config(env={"PLUCKER_SEED": "-7"}, overrides={"k_range": "1: 3", "primes": "2, 5", "budget": "1000"})
        assert (cfg.seed, cfg.k_range, cfg.primes, cfg.budget) == (-7, (1, 3), (2, 5), 1000)
        with pytest.raises(ConfigError):
            load_config(env={}, overrides={"budget": "-1000"})  # a sign only on the seed
