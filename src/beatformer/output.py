"""The one way the package writes a file: :func:`write_files`."""

import contextlib
import errno
import os

from .errors import OutputError


def refuse_directories(directory: str, names) -> None:
    """Raise ``OutputError`` naming the first of ``names`` that is a directory."""
    for path in (os.path.join(directory, name) for name in names):
        if os.path.isdir(path):
            raise OutputError("write", path, IsADirectoryError(errno.EISDIR, "Is a directory"))


def write_files(directory: str, files: dict) -> None:
    """Write ``files`` (name -> str or bytes) into ``directory`` as one set: each
    to a temp file beside its target, then, once no target is a directory,
    rename them all. Files get the mode ``open(path, "w")`` gives. An
    ``OSError`` leaves no temp file and raises ``OutputError`` naming the path."""
    try:
        os.makedirs(directory or os.curdir, exist_ok=True)
    except OSError as err:
        raise OutputError("make output directory", directory, err) from None
    temps = {}
    try:
        for name, data in files.items():
            path = os.path.join(directory, name)
            temps[path] = f"{path}.{os.getpid()}.tmp"
            with open(temps[path], "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        refuse_directories(directory, files)
        for path, tmp in list(temps.items()):
            os.replace(tmp, path)
            del temps[path]
    except OSError as err:
        raise OutputError("write", path, err) from None
    finally:
        for tmp in temps.values():
            with contextlib.suppress(OSError):
                os.unlink(tmp)
