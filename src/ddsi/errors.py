"""Exception taxonomy shared across modules.

Two broad families matter at the CLI boundary: ConfigError subclasses
map to exit code 2 (bad flags or invalid configuration), everything
else derived from DdsiError maps to exit code 1 (runtime failure).
"""


class DdsiError(Exception):
    """Base for all package-specific failures."""


class ConfigError(DdsiError):
    """Invalid user-supplied configuration; CLI exit code 2."""


class InvalidConfig(ConfigError):
    pass


class InvalidDims(ConfigError):
    pass


class KOutOfRange(ConfigError):
    pass


# corpus / query files
class MalformedLine(DdsiError):
    def __init__(self, path, lineno, detail=""):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: malformed line{': ' + detail if detail else ''}")


class NonDenseDocids(DdsiError):
    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"docids are not exactly 0..N-1; first missing id: {missing}")


class EmptyDocument(DdsiError):
    def __init__(self, docid):
        self.docid = docid
        super().__init__(f"document {docid} has no tokens")


class GoldOutOfRange(DdsiError):
    """A gold docid outside [0, N), in a query file or a training batch."""


# model
class EmptyQuery(DdsiError):
    pass


class TokenOutOfRange(DdsiError):
    pass


class ZeroVector(DdsiError):
    """A vector with zero norm reached a cosine computation."""


class CheckpointVersionMismatch(DdsiError):
    pass


# train
class NonFiniteGradient(DdsiError):
    """Gradient or loss went non-finite; the run must abort."""


class ShapeMismatch(DdsiError):
    pass


# metrics
class EmptyRun(DdsiError):
    pass


class TooFewDocs(DdsiError):
    pass


class EmptyInput(DdsiError):
    pass


class ColumnMismatch(DdsiError):
    pass
