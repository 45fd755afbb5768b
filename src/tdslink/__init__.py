"""TDS-OFDM baseband link simulator with sampling-phase analysis."""

__version__ = "0.1.0"

from .analysis import (
    CriterionResult,
    PhaseGrid,
    awgn_phase_criterion,
    band_power_criterion,
    chernoff_objective,
    default_phase_grid,
    rolloff_band,
    theoretical_ber,
    theoretical_ser,
)
from .channel import (
    AWGN_PROFILE,
    ChannelProfile,
    EquivResponse,
    apply_channel,
    awgn_response,
    equivalent_response,
    estimate_response_from_pn,
    load_profile,
    pn_spectrum,
    wrap_phase,
)
from .config import (
    ConfigError,
    CriterionOptions,
    McConfig,
    ScenarioConfig,
    load_scenario,
    scenario_fingerprint,
)
from .dsp import (
    SrrcSpec,
    qfunc,
    raised_cosine_response,
    srrc_taps,
)
from .frame import (
    Constellation,
    FrameConfig,
    PnSequence,
    build_frames,
    generate_pn,
    make_constellation,
)
from .montecarlo import (
    BerCurve,
    BerPoint,
    CriterionReport,
    Source,
    grid_search_ber_oracle,
    measure_chain_response,
    run_criterion,
    run_mc_ber,
    run_str_baseline,
    run_theory,
)
from .str_sync import (
    CorrelationTrace,
    StrLoopState,
    correlate_pn,
    str_track,
    timing_error,
    track_rows,
)
