"""Zero-downtime deployments (extension).

Versioned server configurations pushed through four bounce strategies
(:mod:`repro.deploy.bounce`), judged by a canary controller and rolled
back automatically when the new version violates its SLO deltas
(:mod:`repro.deploy.canary`), scored per seed with confidence intervals
(:mod:`repro.deploy.scorecard`).

The paper's managed system can grow, shrink and repair a tier — but its
lifecycle story ends there.  This package closes the loop on the other
reconfiguration every clustered application lives with: shipping a new
server configuration without dropping the site, and un-shipping it when
the push was bad.
"""

from repro.deploy.bounce import BounceOperation
from repro.deploy.canary import CanaryController, DeployManager
from repro.deploy.scenario import (
    PRESETS,
    STRATEGIES,
    DeployScenario,
    deploy_config,
    with_strategy,
)
from repro.deploy.scorecard import (
    render_scorecard,
    score_run,
    score_scenario,
    violation_seconds,
)
from repro.deploy.versions import (
    ServerVersion,
    apply_version,
    clear_version,
    version_label,
)
from repro.metrics.export import scorecard_json

__all__ = [
    "BounceOperation",
    "CanaryController",
    "DeployManager",
    "DeployScenario",
    "PRESETS",
    "STRATEGIES",
    "ServerVersion",
    "apply_version",
    "clear_version",
    "deploy_config",
    "render_scorecard",
    "score_run",
    "score_scenario",
    "scorecard_json",
    "version_label",
    "violation_seconds",
    "with_strategy",
]
