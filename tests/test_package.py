import inspect

import anisocurve


def test_package_exports_no_modules_and_every_return_type():
    exported = {name: getattr(anisocurve, name) for name in anisocurve.__all__}
    assert not [name for name, obj in exported.items() if inspect.ismodule(obj)]
    # the return types of the exported functions, as the annotations name them
    returned = {inspect.signature(obj).return_annotation
                for obj in exported.values() if inspect.isfunction(obj)}
    assert returned - set(exported) == {"None", "float", "np.ndarray"}
