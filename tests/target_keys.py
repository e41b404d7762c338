"""The sweepable and the float config keys of each CLI target, for the
property tests that draw configs from them. They are literals, not read from
entangler.cli, so that a key the program drops or renames fails a test."""

SWEEPABLE = {"source": ("m_eff", "omega", "beta", "alpha_r", "l_x", "k"),
             "channel": ("omega", "coulomb_k", "g"),
             "twoqubit": ("omega", "k", "alpha_r", "coulomb_k", "lambda"),
             "gates": ("alpha",)}
FLOAT_KEYS = {
    "source": ("m_eff", "omega", "beta", "r_coulomb", "alpha_r", "l_x", "k",
               "reg_delta", "y_min", "y_max"),
    "channel": ("m_eff", "omega", "a", "coulomb_k", "fermi_l", "g"),
    "twoqubit": ("m_eff", "omega", "a_b", "lambda", "k", "alpha_r",
                 "coulomb_k", "fermi_l"),
    "gates": ("alpha",),
}
