"""Exception types shared across the pipeline."""


class FleetRiskError(Exception):
    """Base class for all data and modeling errors raised by this package."""


class UsageError(FleetRiskError):
    """Bad invocation: missing prerequisite artifact, unknown config key, etc. (exit 2)"""


class InvalidConfigError(UsageError, ValueError):
    """A setting that the type taking it refuses on construction: exit 2
    from the CLI, and a ValueError to a library caller."""


class MissingColumnError(FleetRiskError):
    def __init__(self, name: str):
        super().__init__(f"required column missing from header: {name!r}")
        self.name = name


class EmptyDatasetError(FleetRiskError):
    pass


class NonPositiveSpanError(FleetRiskError):
    pass


class EmptySpecError(FleetRiskError):
    pass


class UnknownColumnError(FleetRiskError):
    pass


class SingleClassLabelsError(FleetRiskError):
    pass


class NonFiniteFeatureError(FleetRiskError):
    pass


class WidthMismatchError(FleetRiskError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"matrix width {got} does not match model width {expected}")
        self.expected = expected
        self.got = got


class DegeneratePanelError(FleetRiskError):
    pass


class ZeroFalseMeanError(FleetRiskError):
    pass


class EmptyTestRangeError(FleetRiskError):
    pass


class LengthMismatchError(FleetRiskError):
    pass


class ModelFormatError(FleetRiskError):
    pass
